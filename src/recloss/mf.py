"""Matrix-factorization backbone: embeddings, scoring, Adam training.

The trainer is loss-agnostic: it takes each kind's default scoring mode from
``losses.LOSS_TABLE`` and turns per-score partials, taken at the model's
temperature, into embedding gradients via the chain rule (including the
cosine-normalization Jacobian), adds an L2 term over the rows touched by the
batch, and applies lazily-updated Adam steps.  Learning rate follows a
reduce-on-plateau schedule keyed on validation Recall@K, K = ``eval_k``.

A batch of B rows of K items, touching n_u unique users and n_i unique items,
runs through one dense (n_u x n_i) block, which holds its scores and then
their summed partials, when n_u * n_i <= ``DENSE_BLOCK_FACTOR`` * B * K, as
on a narrow catalog: the rule bounds the block by the batch, never by the
catalog.  A wide catalog, where that block would be mostly zeros and measured
slower beyond a ratio near 9, keeps the chunked gather and sparse products;
only that path imports scipy.sparse, so a narrow-catalog fit runs on NumPy
alone.

``GATHER_BUDGET`` is the one cache budget of the package: the sparse path
scores a batch a few rows at a time, each chunk gathering at most that many
bytes of item rows, Adam updates the touched rows in chunks whose four
(rows x d) blocks fill it, and :mod:`recloss.linear` sizes each block of
gathered iALS factors by it.  ``DENSE_BLOCK_FACTOR`` and ``GATHER_BUDGET``
are module constants, not settings: no config key, flag or environment
variable reaches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .data import InteractionDataset, _atomic_write, make_validation_split
from .losses import (DEBIASED_KINDS, LOSS_KINDS, LOSS_TABLE, ScoreBundle, check_loss_params,
                     debias_params, evaluate_loss, positive_prior_all)
from .sampling import BatchSampler, SamplerConfig, substream

__all__ = [
    "OptimizerState", "PlateauSchedule", "ScoringModel", "TrainConfig", "TrainingDivergedError",
    "TrainingHistory", "adam_step", "batch_objective", "fit", "init_model", "train_epoch",
]

NORM_FLOOR = 1e-12

# Bytes per chunk, for the gathered item rows of a scoring chunk in
# batch_objective, the four-block workspace of adam_step and each block of
# gathered factors in linear, small enough that a chunk's repeated passes
# stay in a core's L2 cache.
GATHER_BUDGET = 1 << 20

# batch_objective takes the dense (unique users x unique items) block when it
# holds at most this many times B*K entries.  The measured crossover sat near
# 9; 4 keeps the block within a few (B, K) arrays.
DENSE_BLOCK_FACTOR = 4


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
        if not self.temperature > 0:
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

    def score_block(self, users: np.ndarray) -> np.ndarray:
        """(B, num_items) score matrix for a block of users."""
        U = self.user_embeddings[users]
        if self.mode == "dot":
            return U @ self.item_embeddings.T
        un, vs = _cosine_rows(U, self.item_embeddings, self.temperature)
        return un @ vs.T

    def for_ranking(self) -> "ScoringModel":
        """The model a ranking pass scores with: this one in dot mode; in
        cosine mode, a dot model over the unit user rows and the item rows
        divided by ||v|| * temperature, prepared once for the pass.  This
        model's arrays are not written."""
        if self.mode == "dot":
            return self
        return ScoringModel(*_cosine_rows(self.user_embeddings, self.item_embeddings,
                                          self.temperature))

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
    if not init_std > 0:
        raise ValueError("init_std must be positive")
    rng = substream(seed, "init")
    return ScoringModel(
        rng.normal(0.0, init_std, size=(num_users, d)),
        rng.normal(0.0, init_std, size=(num_items, d)),
        mode=mode,
        temperature=temperature,
    )


def _unit_rows(x: np.ndarray):
    norms = np.sqrt(np.einsum("...d,...d->...", x, x))[..., None]
    clamped = np.maximum(norms, NORM_FLOOR)
    return x / clamped, clamped, norms <= NORM_FLOOR


def _cosine_rows(U: np.ndarray, V: np.ndarray, temperature: float):
    """The unit rows of U and the unit rows of V over the temperature, fresh
    arrays whose products are the cosine scores a cosine model ranks by."""
    vs = _unit_rows(V)[0]
    vs /= temperature
    return _unit_rows(U)[0], vs


@dataclass
class GradBundle:
    """Batch objective value plus gradients on the touched embedding rows."""

    value: float
    user_rows: np.ndarray
    user_grads: np.ndarray
    item_rows: np.ndarray
    item_grads: np.ndarray


def _unique(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(x, return_inverse=True)`` for ids in [0, n), the inverse
    shaped like x: the unique ids are the set slots of an n-slot marker, and
    an id's inverse is the number of set slots below it."""
    marker = np.zeros(n, dtype=bool)
    marker[x] = True
    return np.flatnonzero(marker), (np.cumsum(marker) - 1)[x]


def _check_ids(name: str, ids: np.ndarray, n: int, unit: str) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        bad = ids[(ids < 0) | (ids >= n)][0]
        raise ValueError(f"{name} holds id {bad}, outside the model's {n} {unit} (ids 0..{n - 1})")


def batch_objective(
    model: ScoringModel,
    users: np.ndarray,
    pos_items: np.ndarray,
    neg_items: np.ndarray,
    extra_items: np.ndarray | None,
    kind: str,
    loss_params: dict | None = None,
    tau_plus: np.ndarray | None = None,
    l2_weight: float = 0.0,
) -> GradBundle:
    """Mean pair loss over the batch plus l2_weight times the mean squared
    norm of the touched embedding rows, with exact gradients.

    With n_u unique users and n_i unique items, a batch with
    n_u * n_i <= DENSE_BLOCK_FACTOR * B * K is scored as one (n_u x n_i) GEMM,
    and the same block, zeroed, then sums the partials into G, so the
    gradients are the GEMMs G V and G^T U; the batch holds that one block, of
    at most 4 * B * K floats, whatever the catalog.  A wider batch is scored
    GATHER_BUDGET bytes of gathered item rows at a time, so it never holds a
    (B, K, d) block, and back-propagated through sparse products.  Both paths
    share the loss call, the cosine projection, the norm floor and the L2
    term.  neg_items is (B, N) with N >= 1, as the trainer's sampler draws;
    None or zero columns, an empty batch, an id outside the model's users or
    items, or extra_items for a kind outside DEBIASED_KINDS raises ValueError.
    """
    users = np.asarray(users)
    b = len(users)
    if b == 0:
        raise ValueError("batch_objective got an empty batch (users has length 0)")
    if neg_items is None or np.size(neg_items) == 0:
        raise ValueError(f"batch_objective needs neg_items, a (B, N) array with N >= 1, got "
                         f"{None if neg_items is None else np.shape(neg_items)}")
    if extra_items is not None and kind not in DEBIASED_KINDS:
        raise ValueError(f"batch_objective got extra_items for {kind!r}, which reads none; "
                         f"only {', '.join(DEBIASED_KINDS)} score extra positives")
    # one (B, K) item matrix: column 0 the positive, then negatives, then extra positives
    parts = [np.reshape(pos_items, (b, 1)), neg_items]
    items = np.concatenate(parts if extra_items is None else parts + [extra_items], axis=1)
    k = items.shape[1]
    neg_end = 1 + neg_items.shape[1]
    _check_ids("users", users, model.num_users, "users")
    for name, cols in (("positives", items[:, :1]), ("negatives", items[:, 1:neg_end]),
                       ("extras", items[:, neg_end:])):
        _check_ids(name, cols, model.num_items, "items")
    uniq_u, inv_u = _unique(users, model.num_users)
    uniq_i, inv_i = _unique(items, model.num_items)
    U = model.user_embeddings[uniq_u]
    V = model.item_embeddings[uniq_i]
    cosine = model.mode == "cosine"
    if cosine:
        Un, cu, small_u = _unit_rows(U)
        Vn, cv, small_v = _unit_rows(V)
    else:
        Un, Vn = U, V
    n_u, n_i = len(uniq_u), len(uniq_i)
    dense = n_u * n_i <= DENSE_BLOCK_FACTOR * b * k
    if dense:
        # one GEMM scores every (unique user, unique item) pair into the one
        # block the batch holds, and each score's flat position in that block
        # picks the batch's scores out
        flat = inv_u[:, None] * n_i + inv_i
        block = Un @ Vn.T
        cos = np.take(block, flat)
    else:
        Ub = Un[inv_u]
        cos = np.empty((b, k))
        rows = max(1, GATHER_BUDGET // (k * model.d * 8))
        for s in range(0, b, rows):
            np.matmul(Vn[inv_i[s:s + rows]], Ub[s:s + rows, :, None], out=cos[s:s + rows, :, None])
    y = cos / model.temperature if cosine else cos

    bundle = ScoreBundle(y[:, 0], y[:, 1:neg_end], y[:, neg_end:])
    ev = evaluate_loss(kind, bundle, loss_params, tau_plus=tau_plus, temperature=model.temperature)

    # Per-score partials of the batch mean, D (B, K).  dot: dy/du = v and
    # dy/dv = u, so each side's gradient is one product of the summed
    # partials with the other side's rows; repeated users and items add up.
    D = np.concatenate(
        [np.reshape(ev.d_pos, (b, 1)), np.reshape(ev.d_unlabeled, (b, -1)),
         np.reshape(ev.d_extra_pos, (b, -1))],
        axis=1,
    )
    D /= b
    if dense:
        # the score block, read for the last time above, becomes G: zeroed,
        # then each partial added in at its flat position in batch order,
        # which gives the sums np.bincount gives.  Two GEMMs follow, G V and
        # G^T U; the block, the largest array the batch holds, is freed
        # before the cosine and L2 passes
        block.fill(0.0)
        np.add.at(block.ravel(), flat.ravel(), D.ravel())
        gu, gi = block @ Vn, block.T @ Un
        del block
    else:
        # the partials as a sparse (B x unique items) matrix R, one row per
        # batch row, and P, the (B x unique users) indicator of each row's
        # user.  The products run on C = R^T in CSR form: one pass over the
        # unique item rows in order, with only the (B, d) side read or written
        # at random, which stays in cache at any catalog width.
        from scipy import sparse
        R = sparse.csr_array((D.ravel(), inv_i.ravel(), np.arange(0, b * k + 1, k)),
                             shape=(b, n_i))
        P = sparse.csr_array((np.ones(b), inv_u, np.arange(b + 1)), shape=(b, n_u))
        C = R.T.tocsr()
        gu = P.T @ (C.T @ Vn)
        gi = C @ Ub
    if cosine:
        # dy/du = (v_hat - cos u_hat) / (t ||u||) and symmetrically for v: the
        # projection term needs only the per-row sums of D * cos.  Below the
        # norm floor the normalizer is the constant floor, so it vanishes.
        # Neither path reads D, Un or Vn again, so they are reused in place.
        D *= cos
        su = np.bincount(inv_u, D.sum(axis=1), minlength=n_u)[:, None]
        si = np.bincount(inv_i.ravel(), D.ravel(), minlength=n_i)[:, None]
        for g, s, small, xn, c in ((gu, su, small_u, Un, cu), (gi, si, small_v, Vn, cv)):
            s[small] = 0.0
            xn *= s
            g -= xn
            g /= model.temperature * c

    value = float(np.mean(ev.value))
    if l2_weight > 0:
        n_rows = n_u + n_i
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
    """One bias-corrected Adam update (Kingma & Ba 2015), touching only the
    rows in grads.

    The touched rows are updated a chunk at a time, in one (4, chunk, d)
    workspace of GATHER_BUDGET bytes: each chunk of m, v and the embeddings is
    gathered into it, updated in place and scattered back, so the whole update
    runs in cache.  The float operations keep the order of
    ``lr * (m / bc1) / (sqrt(v / bc2) + eps)``, so the result is bit for bit
    that of the unfused update.  Rows outside the model, a row given twice or
    gradients not shaped (rows, d) raise ValueError before any state changes.
    """
    d = model.d
    sides = (
        ("user", grads.user_rows, grads.user_grads, state.m_user, state.v_user,
         model.user_embeddings),
        ("item", grads.item_rows, grads.item_grads, state.m_item, state.v_item,
         model.item_embeddings),
    )
    for side, rows, g, _, _, theta in sides:
        n = len(theta)
        _check_ids(f"{side}_rows", rows, n, f"{side}s")
        if np.shape(g) != (len(rows), d):
            raise ValueError(f"{side}_grads has shape {np.shape(g)}, expected "
                             f"({len(rows)}, {d}) for {len(rows)} {side}_rows")
        repeated = np.flatnonzero(np.bincount(rows, minlength=n) > 1)
        if repeated.size:
            raise ValueError(f"{side}_rows holds id {repeated[0]} more than once")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    chunk = max(1, GATHER_BUDGET // (4 * d * 8))
    work = np.empty((4, chunk, d))
    for _, rows, g, m, v, theta in sides:
        for s in range(0, len(rows), chunk):
            r, gs = rows[s:s + chunk], g[s:s + chunk]
            # the rows are checked, so take(mode="wrap") picks exactly them
            # and, unlike the default mode, fills the workspace without a copy
            mr, vr, tr, scratch = work[:, :len(r)]
            np.take(m, r, axis=0, out=mr, mode="wrap")
            mr *= ADAM_BETA1
            np.multiply(gs, 1.0 - ADAM_BETA1, out=scratch)
            mr += scratch
            m[r] = mr
            np.square(gs, out=scratch)
            scratch *= 1.0 - ADAM_BETA2
            np.take(v, r, axis=0, out=vr, mode="wrap")
            vr *= ADAM_BETA2
            vr += scratch
            v[r] = vr
            # the step, built in the gathered blocks now that m and v are stored
            mr /= bc1
            mr *= lr
            vr /= bc2
            np.sqrt(vr, out=vr)
            vr += ADAM_EPS
            mr /= vr
            np.take(theta, r, axis=0, out=tr, mode="wrap")
            tr -= mr
            theta[r] = tr


@dataclass
class TrainConfig:
    """One MF run.  Every loss kind trains on N >= 1 negatives per pair drawn by
    ``sampler``, whose default, one uniform draw, is the CLI's; ``mode`` None
    takes the kind's scoring mode from ``losses.LOSS_TABLE``."""

    embedding_dim: int = 64
    loss: str = LOSS_KINDS[0]
    loss_params: dict = field(default_factory=dict)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
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
        check_loss_params(self.loss, self.loss_params)
        for name in ("embedding_dim", "batch_size", "max_epochs", "eval_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("plateau_factor", "val_fraction"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if not self.min_lr < self.initial_lr:
            raise ValueError("min_lr must be below initial_lr")
        if not self.l2_weight >= 0:
            raise ValueError("l2_weight must be non-negative")
        if not isinstance(self.sampler, SamplerConfig):
            raise ValueError(f"sampler must be a SamplerConfig, got {self.sampler!r}")
        if self.loss in DEBIASED_KINDS:
            if self.sampler.m_positives < 1:
                raise ValueError(f"{self.loss} needs a sampler with m_positives >= 1")
        elif self.sampler.m_positives > 0:
            raise ValueError(f"{self.loss} reads no extra positives; set sampler.m_positives to "
                             f"0 (got {self.sampler.m_positives}) or use one of "
                             f"{', '.join(DEBIASED_KINDS)}")
        if self.mode is None:
            self.mode = LOSS_TABLE[self.loss].mode
        # an empty model applies init_model's and ScoringModel's own rules
        init_model(0, 0, self.embedding_dim, self.seed, self.init_std, self.mode, self.temperature)


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
    sampler = BatchSampler(ds, cfg.sampler, rng)
    if tau_all is None:
        tau_all = _tau_vector(ds, cfg)
    lr = cfg.initial_lr if lr is None else lr

    total, n_batches = 0.0, 0
    for start in range(0, len(pairs), cfg.batch_size):
        chunk = pairs[order[start:start + cfg.batch_size]]
        users, pos = chunk[:, 0], chunk[:, 1]
        negs = sampler.negatives(users)
        extras = sampler.extra_positives(users) if cfg.sampler.m_positives > 0 else None
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
    """Scale the lr by `factor` after `patience` epochs without a metric gain
    above `threshold`; training stops once the lr falls below `min_lr`."""

    def __init__(self, initial_lr: float, factor: float, patience: int, threshold: float,
                 min_lr: float):
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
    val_recall: float
    val_ndcg: float
    lr: float


@dataclass
class TrainingHistory:
    k: int  # the cutoff of the validation metrics, which to_csv names
    records: list[EpochRecord] = field(default_factory=list)

    def append(self, rec: EpochRecord) -> None:
        if self.records and rec.lr > self.records[-1].lr:
            raise ValueError("learning rate must be non-increasing")
        self.records.append(rec)

    def best_epoch(self) -> EpochRecord:
        return max(self.records, key=lambda r: r.val_recall)

    def to_csv(self, path) -> None:
        with _atomic_write(path) as fh:
            fh.write(f"epoch,loss,val_recall{self.k},val_ndcg{self.k},lr\n")
            for r in self.records:
                fh.write(f"{r.epoch},{r.loss:.10g},{r.val_recall:.10g},{r.val_ndcg:.10g},{r.lr:.10g}\n")


def fit(ds: InteractionDataset, cfg: TrainConfig) -> tuple[ScoringModel, TrainingHistory]:
    """Train with plateau scheduling; returns the best-validation snapshot.

    A ``cfg.val_fraction`` share of each user's train items, drawn from
    ``cfg.seed``, is held out for validation and the model is trained on the
    remainder.
    """
    train_ds, val_positives = make_validation_split(ds, cfg.val_fraction, cfg.seed)
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
    history = TrainingHistory(cfg.eval_k)
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
