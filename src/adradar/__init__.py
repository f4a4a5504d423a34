"""802.11ad joint radar-communication simulation and velocity estimation."""

from .baseline import DelayDopplerMap, baseline_velocities, delay_doppler_map
from .echo import EchoFrame, synthesize_frame
from .estimator import (DelayEstimate, DopplerEstimate, PipelineConfig,
                        VelocityEstimate, build_shift_matrix, denominator_inverse,
                        detection_threshold, estimate_delays, lse_coefficients,
                        raw_doppler, refine_doppler, run_pipeline,
                        velocity_from_doppler, wrap_count)
from .harness import (ExperimentConfig, TrialRecord, bootstrap_ci, nmse,
                      run_experiment, sweep_cpi, sweep_framegap)
from .params import WaveformParams
from .phasedarray import (UpaGeometry, design_wide_beam, gain_cut, measure_beamwidth,
                          steering_upa, steering_x, steering_y, wide_beam)
from .scene import (FrameTruth, Scenario, Scene, Target, backscatter_coefficient,
                    build_scene, designed_beam, frame_truth, large_scale_gain,
                    load_scenario, noise_clutter_variance, save_scenario)
from .sequences import (build_preamble, correlation_profile, correlation_segment,
                        generate_golay_pair)

__version__ = "0.1.0"
