// Composite frequency-response utilities for an assembled chain.
//
// Figures 8-11 of the paper are all views of these responses: the Sinc
// cascade, the halfband, the equalizer, and the full composite referred to
// the modulator input rate.
#pragma once

#include <span>
#include <vector>

#include "src/decimator/chain.h"

namespace dsadc::core {

/// Composite impulse response of the whole chain referred to the input
/// rate (stage taps upsampled by their accumulated decimation and
/// convolved), including the scaler gain. Uses the *quantized* (CSD)
/// coefficients, i.e. this is the response of Fig. 11.
std::vector<double> composite_impulse_response(const decim::ChainConfig& cfg);

/// Magnitude of the composite response at every absolute frequency of
/// `freqs_hz`: the Sinc factors, |HBF|, the CSD scaler and |EQ| (quantized
/// taps), multiplied in that order. The FIR stages are evaluated with
/// dsp::fir_magnitudes and the coefficients quantized once per call.
std::vector<double> composite_magnitudes(const decim::ChainConfig& cfg,
                                         std::span<const double> freqs_hz);

/// Magnitude of the composite response at absolute frequency `freq_hz`
/// (the one-point case of composite_magnitudes).
double composite_magnitude(const decim::ChainConfig& cfg, double freq_hz);

/// Droop of the pre-equalizer part (Sinc cascade + HBF) referred to the
/// equalizer rate; this is the "uncompensated response" curve of Fig. 10.
double pre_equalizer_magnitude(const decim::ChainConfig& cfg, double freq_hz);

/// Minimum attenuation (dB relative to DC) over the primary stopband
/// [fstop_hz, 2*output_rate - fstop_hz]; this is the Table-I ">85 dB
/// stopband" check, covering everything that folds across the first
/// output-rate image. Deeper images sit under the Sinc notches except for
/// narrow band-edge leakage slots; use
/// composite_alias_protection_db for the strict all-images metric.
double composite_stopband_atten_db(const decim::ChainConfig& cfg,
                                   double fstop_hz,
                                   std::size_t grid = 4096);

/// Worst-case attenuation of the composite response (dB relative to DC)
/// over ALL frequencies at the input rate that alias into [0, protect_hz]
/// after decimation to the output rate. For a Sinc-based chain this is
/// limited by the band-edge leakage slots at m*fout +- protect_hz (the
/// known edge-of-band SNR tradeoff of Sinc cascades).
double composite_alias_protection_db(const decim::ChainConfig& cfg,
                                     double protect_hz,
                                     std::size_t grid = 4096);

/// Passband ripple (dB) of the composite response over [f0_hz, f1_hz].
/// The three sweeps throw std::invalid_argument for grid == 0.
double composite_passband_ripple_db(const decim::ChainConfig& cfg,
                                    double f0_hz, double f1_hz,
                                    std::size_t grid = 2048);

}  // namespace dsadc::core
