"""Iterative diffusion-based image editing with ROI-mask control, transition
clips, and convergence diagnostics on analytic Gaussian-mixture domains."""

__version__ = "0.1.0"

from .denoiser import (Condition, ConditionBlend, GmmDenoiser, GmmModel,
                       Mixture, blend_conditions, gmm_eps, mixture_logpdf)
from .metrics import (IdentityEmbedder, RandomProjectionEmbedder, clip_i,
                      confidence, kid, mae)
from .pie import (ConvergenceBound, PieConfig, composite_roi, diff_heatmap, pie_run,
                  prop2_bound, step_decay_fit)
from .scheduler import (NoiseSchedule, build_schedule, ddim_chain, ddim_step,
                        forward_diffuse)
from .toydata import ClassSpec, DomainSpec, build_domain, make_mask, render_mean, sample
from .transition import concat_clips, generate_transition, make_clip_skeleton

__all__ = [
    "Condition", "ConditionBlend", "GmmDenoiser", "GmmModel", "Mixture",
    "blend_conditions", "gmm_eps", "mixture_logpdf",
    "IdentityEmbedder", "RandomProjectionEmbedder", "clip_i", "confidence",
    "kid", "mae",
    "ConvergenceBound", "PieConfig", "composite_roi", "diff_heatmap", "pie_run",
    "prop2_bound", "step_decay_fit",
    "NoiseSchedule", "build_schedule", "ddim_chain", "ddim_step",
    "forward_diffuse",
    "ClassSpec", "DomainSpec", "build_domain", "make_mask", "render_mean", "sample",
    "concat_clips", "generate_transition", "make_clip_skeleton",
]
