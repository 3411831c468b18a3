// Frequency-response evaluation of FIR / rational discrete-time systems.
//
// All "Figure N: frequency response" reproductions sample responses through
// these helpers so every bench plots exactly what the filter implements.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace dsadc::dsp {

/// H(e^{j 2 pi f}) of an FIR with impulse response `h`, f in cycles/sample.
std::complex<double> fir_response_at(std::span<const double> h, double f);

/// |H(e^{j 2 pi f_k})| of an FIR at every point of `freqs` into `mags`
/// (same length), bit-identical to std::abs(fir_response_at(h, f_k)).
/// Evaluates several Horner chains side by side, so a whole grid costs
/// far less than one fir_response_at call per point.
void fir_magnitudes(std::span<const double> h, std::span<const double> freqs,
                    std::span<double> mags);

/// H(e^{j 2 pi f}) of a rational system b(z)/a(z) with coefficients in
/// descending powers of z^-1 (b[0] + b[1] z^-1 + ...).
std::complex<double> rational_response_at(std::span<const double> b,
                                          std::span<const double> a, double f);

/// Sample |H| in dB of an FIR on `n` points over [0, fmax) cycles/sample.
std::vector<double> fir_magnitude_db(std::span<const double> h, std::size_t n,
                                     double fmax = 0.5);

/// A uniform frequency grid over [0, fmax), n points, cycles/sample.
std::vector<double> frequency_grid(std::size_t n, double fmax = 0.5);

/// Peak-to-peak magnitude ripple of an FIR in dB over band [f0, f1]
/// (cycles/sample), sampled on `n` points. The band sweeps below throw
/// std::invalid_argument for n < 2.
double passband_ripple_db(std::span<const double> h, double f0, double f1,
                          std::size_t n = 2048);

/// Worst-case (largest) magnitude in dB over band [f0, f1].
double max_magnitude_db(std::span<const double> h, double f0, double f1,
                        std::size_t n = 2048);

/// Minimum stopband attenuation in dB over [f0, f1] relative to H(0).
double min_attenuation_db(std::span<const double> h, double f0, double f1,
                          std::size_t n = 2048);

/// Convolve two impulse responses (cascade of FIR filters).
std::vector<double> convolve(std::span<const double> a,
                             std::span<const double> b);

/// Impulse response of an FIR upsampled by `m` (each tap separated by m-1
/// zeros): h(z) -> h(z^m). Used to refer a post-decimation stage's response
/// back to the input rate of the cascade.
std::vector<double> upsample_taps(std::span<const double> h, std::size_t m);

/// True if the impulse response is symmetric (linear phase) to `tol`.
bool is_symmetric(std::span<const double> h, double tol = 1e-12);

}  // namespace dsadc::dsp
