#include "fft/fft.h"

#include <cassert>
#include <cstdint>

#include "fft/plan.h"
#include "util/simd.h"

namespace xplace::fft {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft(Complex* data, std::size_t n) {
  assert(is_pow2(n));
  if (n == 1) return;
  // Twiddles, stage offsets, and bit-reversal pairs come from the shared
  // lock-free plan cache (fft/plan.h) — same tables the fused DCT passes use.
  const Plan& p = plan(n);
  for (std::size_t s = 0; s < p.rev_i.size(); ++s) {
    std::swap(data[p.rev_i[s]], data[p.rev_j[s]]);
  }
  // std::complex<double> is layout-compatible with double[2] (guaranteed by
  // the standard), so each radix-2 stage runs through the SIMD backend's
  // butterfly kernel on the raw interleaved buffer. Stage twiddles are
  // contiguous in the plan, so every launch is unit-stride (step=1).
  const simd::Kernels& k = simd::active();
  double* d = reinterpret_cast<double*>(data);
  const double* twd = reinterpret_cast<const double*>(p.tw.data());
  std::size_t s = 0;
  for (std::size_t len = 2; len <= n; len <<= 1, ++s) {
    k.fft_pass(d, twd + 2 * p.stage_off[s], n, len, /*step=*/1);
  }
}

void ifft(Complex* data, std::size_t n) {
  assert(is_pow2(n));
  // Conjugate trick: ifft(x) = conj(fft(conj(x))) / n.
  const simd::Kernels& k = simd::active();
  k.conj_scale(reinterpret_cast<double*>(data), n, 1.0);
  fft(data, n);
  k.conj_scale(reinterpret_cast<double*>(data), n,
               1.0 / static_cast<double>(n));
}

std::vector<Complex> fft(const std::vector<Complex>& x) {
  std::vector<Complex> y = x;
  fft(y.data(), y.size());
  return y;
}

std::vector<Complex> ifft(const std::vector<Complex>& x) {
  std::vector<Complex> y = x;
  ifft(y.data(), y.size());
  return y;
}

void fft2(Complex* data, std::size_t rows, std::size_t cols) {
  assert(is_pow2(rows) && is_pow2(cols));
  for (std::size_t r = 0; r < rows; ++r) fft(data + r * cols, cols);
  std::vector<Complex> col(rows);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) col[r] = data[r * cols + c];
    fft(col.data(), rows);
    for (std::size_t r = 0; r < rows; ++r) data[r * cols + c] = col[r];
  }
}

void ifft2(Complex* data, std::size_t rows, std::size_t cols) {
  assert(is_pow2(rows) && is_pow2(cols));
  for (std::size_t r = 0; r < rows; ++r) ifft(data + r * cols, cols);
  std::vector<Complex> col(rows);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) col[r] = data[r * cols + c];
    ifft(col.data(), rows);
    for (std::size_t r = 0; r < rows; ++r) data[r * cols + c] = col[r];
  }
}

}  // namespace xplace::fft
