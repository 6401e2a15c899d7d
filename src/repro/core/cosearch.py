"""The EDD co-search (Sec. 5 "Overall Algorithm").

Bilevel stochastic gradient descent over the fused space ``{A, I}``:

1. initialise Theta/Phi uniform, parallel factors per the device rule;
2. each epoch, (a) update DNN weights ``w`` on the training split by
   minimising ``Acc_loss`` under sampled architectures, then (b) update
   ``{Theta, Phi, pf}`` on the validation split by descending Eq. 1, both
   at the current weights (first order);
3. anneal the Gumbel temperature;
4. derive the argmax architecture, re-tune integer parallel factors, and
   hand the spec to the trainer for training from scratch.

Targets and devices are registered and resolved in :mod:`repro.hw.registry`;
the supported high-level entry point is :mod:`repro.api`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.autograd.tensor import Tensor
from repro.core.config import EDDConfig
from repro.core.engine import SearchEngine
from repro.core.loss import combined_loss
from repro.core.results import EpochRecord, SearchResult
from repro.data.loader import DataLoader
from repro.data.synthetic import DatasetSplits
from repro.hw import registry as hw_registry
from repro.hw.base import HardwareModel
from repro.hw.fpga import FPGAModel
from repro.nas.derive import derive_arch_spec
from repro.nas.gumbel import GumbelSoftmax, TemperatureSchedule, perplexity
from repro.nas.space import SearchSpaceConfig
from repro.nas.supernet import SampledArch, SuperNet
from repro.nn.functional import cross_entropy
from repro.nn.optim import SGD, Adam, clip_grad_norm
from repro.utils.log import get_logger

logger = get_logger("core.cosearch")


def build_supernet(space: SearchSpaceConfig, config: EDDConfig) -> SuperNet:
    return SuperNet(
        space,
        quant=hw_registry.quantization_for_target(config.target),
        seed=config.seed,
    )


class EDDSearcher:
    """Runs one co-search over a search space, dataset and device model."""

    def __init__(
        self,
        space: SearchSpaceConfig,
        splits: DatasetSplits,
        config: EDDConfig | None = None,
        hw_model: HardwareModel | None = None,
        supernet: SuperNet | None = None,
    ) -> None:
        self.config = config or EDDConfig()
        self.space = space
        self.splits = splits
        self.supernet = supernet or build_supernet(space, self.config)
        self.hw_model = hw_model or hw_registry.build_hardware_model(
            space, self.config
        )
        self.sampler = GumbelSoftmax(
            schedule=TemperatureSchedule(
                t_initial=self.config.temperature_initial,
                t_min=self.config.temperature_min,
                decay=self.config.temperature_decay,
            ),
            seed=self.config.seed + 1,
        )
        self.weight_optimizer = SGD(
            self.supernet.weight_parameters(),
            lr=self.config.lr_weights,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        arch_params = (
            self.supernet.arch_parameters()
            + self.hw_model.implementation_parameters()
        )
        self.arch_optimizer = Adam(arch_params, lr=self.config.lr_arch)
        self._alpha_calibrated = False
        # Loaders live on the searcher (not inside search()) so checkpoints
        # can capture their shuffle streams and resume() can rewind them.
        self.train_loader = DataLoader(
            self.splits.train, self.config.batch_size, shuffle=True,
            seed=self.config.seed + 2,
        )
        self.val_loader = DataLoader(
            self.splits.val, self.config.batch_size, shuffle=True,
            seed=self.config.seed + 3,
        )

    # -- helpers -------------------------------------------------------------
    def _expected_sample(self) -> SampledArch:
        """Noise-free expectation sample (softmax of current logits)."""
        net = self.supernet
        op_weights = self.sampler.expected(net.theta, axis=-1)
        if net.quant is not None:
            quant_weights = self.sampler.expected(net.phi, axis=-1)
            sharing = net.quant.sharing
        else:
            quant_weights = Tensor(np.ones((1,)))
            sharing = "global"
        return SampledArch(
            op_weights=op_weights,
            quant_weights=quant_weights,
            op_indices=[int(i) for i in op_weights.data.argmax(axis=-1)],
            sharing=sharing,
            hard=False,
        )

    def calibrate_alpha(self) -> float:
        """Scale alpha so the initial Perf_loss matches ``alpha_target``.

        This realises the paper's instruction that "alpha scales Perf_loss to
        the same magnitude as Acc_loss" without manual tuning per device.
        """
        evaluation = self.hw_model.evaluate(self._expected_sample())
        perf0 = float(evaluation.perf_loss.data)
        if perf0 > 0:
            scale = self.config.alpha_target / perf0
            self.hw_model.alpha = getattr(self.hw_model, "alpha", 1.0) * scale
        self._alpha_calibrated = True
        return getattr(self.hw_model, "alpha", 1.0)

    # -- steps ------------------------------------------------------------------
    def weight_step(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Inner-level update of DNN weights on a training batch, under a hard
        (single-path) Gumbel sample: one candidate per block runs."""
        self.weight_optimizer.zero_grad()
        self.arch_optimizer.zero_grad()
        sample = self.supernet.sample(self.sampler, hard=True)
        logits = self.supernet(Tensor(images), sample=sample)
        loss = cross_entropy(logits, labels)
        loss.backward()
        if self.config.grad_clip is not None:
            clip_grad_norm(self.weight_optimizer.params, self.config.grad_clip)
        self.weight_optimizer.step()
        return loss.item()

    def arch_step(self, images: np.ndarray, labels: np.ndarray) -> dict[str, float]:
        """Outer-level update of {Theta, Phi, pf} on a validation batch (Eq. 1),
        under a soft Gumbel sample, first order (at the current weights)."""
        self.weight_optimizer.zero_grad()
        self.arch_optimizer.zero_grad()
        sample = self.supernet.sample(self.sampler, hard=False)
        logits = self.supernet(Tensor(images), sample=sample)
        acc_loss = cross_entropy(logits, labels)
        hw_eval = self.hw_model.evaluate(sample)
        total = combined_loss(
            acc_loss,
            hw_eval,
            self.hw_model.resource_bound,
            beta=self.config.beta,
            penalty_base=self.config.penalty_base,
        )
        total.backward()
        if self.config.grad_clip is not None:
            clip_grad_norm(self.arch_optimizer.params, self.config.grad_clip)
        self.arch_optimizer.step()
        self.hw_model.project_parameters()
        return {
            "acc_loss": acc_loss.item(),
            "perf_loss": float(hw_eval.perf_loss.data),
            "resource": float(hw_eval.resource.data),
            "total_loss": total.item(),
        }

    # -- engine plumbing ---------------------------------------------------------
    def _derive(self, name: str) -> tuple:
        """Derive phase: argmax spec plus FPGA parallel-factor retuning."""
        spec = derive_arch_spec(self.supernet, name=name)
        spec.metadata["target"] = self.config.target
        parallel_factors = None
        if isinstance(self.hw_model, FPGAModel):
            theta_idx = [int(i) for i in self.supernet.theta.data.argmax(axis=-1)]
            bits = spec.metadata.get(
                "block_bits", [16] * self.space.num_blocks
            )
            parallel_factors = self.hw_model.retune_parallel_factors(theta_idx, bits)
            spec.metadata["parallel_factors"] = parallel_factors
        return spec, parallel_factors

    def _log_epoch(self, record: EpochRecord) -> None:
        if self.config.log_every and record.epoch % self.config.log_every == 0:
            logger.info(
                "epoch %d train=%.3f val=%.3f perf=%.3f res=%.1f T=%.2f",
                record.epoch, record.train_loss, record.val_acc_loss,
                record.perf_loss, record.resource, record.temperature,
            )

    def build_engine(
        self,
        name: str = "EDD-searched",
        extra_callbacks: tuple | list = (),
        divergence_guard=None,
    ) -> SearchEngine:
        """The :class:`~repro.core.engine.SearchEngine` behind :meth:`search`.

        Args:
            name: Name given to the derived :class:`~repro.nas.arch_spec.ArchSpec`.
            extra_callbacks: Additional per-epoch callbacks (e.g. a
                :class:`~repro.core.checkpoint.CheckpointCallback`) appended
                after the built-in logging callback.
            divergence_guard: Optional :class:`repro.resilience.
                DivergenceGuard` giving the engine rollback-and-retry
                recovery from non-finite epochs.

        Returns:
            A configured engine; ``engine.run(...)`` executes the search.
        """
        # Bound per call, not at construction: perfbench times both steps by
        # wrapping them on the class for the life of a run.
        return SearchEngine(
            epochs=self.config.epochs,
            weight_step=self.weight_step,
            arch_step=self.arch_step,
            arch_start_epoch=self.config.arch_start_epoch,
            anneal=self.sampler.set_epoch,
            derive=lambda: self._derive(name),
            perplexity_fn=lambda: float(
                np.mean(perplexity(self.supernet.theta.data))
            ),
            callbacks=[self._log_epoch, *extra_callbacks],
            divergence_guard=divergence_guard,
        )

    # -- main loop --------------------------------------------------------------
    def search(
        self,
        name: str = "EDD-searched",
        callbacks: tuple | list = (),
        start_epoch: int = 0,
        initial_history: tuple | list = (),
        divergence_guard=None,
    ) -> SearchResult:
        """Run the bilevel co-search and derive the final architecture.

        Args:
            name: Name for the derived spec.
            callbacks: Extra per-epoch callbacks (checkpointing, live plots).
            start_epoch: First epoch to execute — non-zero only when resuming
                from a checkpoint that restored all mutable state (use
                :meth:`resume` rather than passing this by hand).
            initial_history: Records of the already-completed epochs on a
                resume; they are prepended to the result's history.
            divergence_guard: Optional :class:`repro.resilience.
                DivergenceGuard` — non-finite epochs roll back to the last
                good checkpoint and replay with a scaled-down LR instead
                of poisoning the result.

        Returns:
            The :class:`~repro.core.results.SearchResult`.  On a resumed run
            ``search_seconds``/``phase_seconds`` cover only the resumed
            portion, while ``history`` covers the whole search.
        """
        config = self.config
        start = time.perf_counter()  # includes alpha calibration, as before
        if not self._alpha_calibrated:
            self.calibrate_alpha()
        run = self.build_engine(
            name, extra_callbacks=callbacks, divergence_guard=divergence_guard
        ).run(
            self.train_loader,
            self.val_loader,
            start_epoch=start_epoch,
            initial_history=tuple(initial_history),
        )
        spec, parallel_factors = run.derived
        return SearchResult(
            spec=spec,
            history=run.history,
            theta=self.supernet.theta.data.copy(),
            phi=self.supernet.phi.data.copy(),
            parallel_factors=parallel_factors,
            search_seconds=time.perf_counter() - start,
            config=config,
            phase_seconds=dict(run.phase_seconds),
        )

    def resume(
        self,
        path,
        name: str = "EDD-searched",
        callbacks: tuple | list = (),
    ) -> SearchResult:
        """Restore a checkpoint and finish the search from where it stopped.

        The searcher must be freshly constructed with the same space, splits
        and config as the checkpointed run.  The remaining epochs replay
        bit-identically, so the returned result's arrays equal those of an
        uninterrupted run.

        Args:
            path: Checkpoint file written by
                :class:`~repro.core.checkpoint.CheckpointCallback` or
                :func:`~repro.core.checkpoint.save_checkpoint`.
            name: Name for the derived spec.
            callbacks: Extra per-epoch callbacks for the resumed portion; a
                fresh :class:`~repro.core.checkpoint.CheckpointCallback`
                passed here should be seeded with the restored history.

        Returns:
            The full-search :class:`~repro.core.results.SearchResult`.
        """
        from repro.core.checkpoint import restore_search_state

        state = restore_search_state(self, path)
        return self.search(
            name=name,
            callbacks=callbacks,
            start_epoch=state.epoch,
            initial_history=state.history,
        )
