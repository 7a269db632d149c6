// Fused FFT/DCT plan engine (DESIGN.md §15).
//
// Every DCT/IDCT/IDXST in the repository runs here (Makhoul's algorithm:
// pack → complex FFT → rotate), on per-size `Plan`s that precompute
// everything a transform needs once — stage-major butterfly twiddles,
// bit-reversal tables, the composed pack∘bit-reverse gather permutation,
// and the DCT phase factors — plus an executor that exploits the real-input
// symmetry of the electrostatic transforms: two real rows (or two adjacent
// columns) ride one complex FFT as its real and imaginary parts, halving
// the butterfly work.
//
// Per pair, the executor runs
//
//   plan_fwd_head   gather both sequences through the composed permutation
//                   directly into bit-reversed slots + the twiddle-free
//                   first butterfly             (one pass instead of three)
//   fft_pass        middle stages len 4 … n/2   (the PR 4 SIMD butterflies)
//   plan_fwd_tail   last butterfly + spectrum disentangle + Makhoul rotate
//                   + paired store              (one pass instead of three)
//
// and the mirror-image inverse pipeline (pretwiddle head / 1⁄n-scaled
// unpack tail); see util/simd.h for the kernel contracts. Column passes
// transform adjacent column pairs in place at their native stride — the
// old gather/scatter copy through a thread_local buffer is gone.
//
// Determinism: pairing is by fixed line index (2p, 2p+1), every pair writes
// a disjoint slice, and per-worker scratch comes from a caller-owned
// `PlanScratch` slab — so pooled passes are bitwise-identical to serial
// ones for ANY worker count, and the scalar and AVX2 backends of the new
// kernels are bitwise-identical to each other by construction (single-
// rounded mul/add/addsub chains in matching order, no FMA contraction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "fft/fft.h"

namespace xplace {
class ThreadPool;
}

namespace xplace::fft {

/// The 1-D transform kinds the electrostatic solver composes.
enum class Kind1D : std::uint8_t { kDct, kIdct, kIdxst };

/// Immutable per-size transform plan (n a power of two, n ≥ 2). Built once,
/// cached for the process lifetime, shared by every thread without locks.
struct Plan {
  std::size_t n = 0;

  /// Stage-major contiguous butterfly twiddles: for each stage `len`
  /// (2, 4, …, n) the values e^{-2πik/n} for k·(n/len), k < len/2,
  /// concatenated; `stage_off[s]` is the complex offset of stage s
  /// (len = 2<<s). Identical layout to the historical fft.cpp plan, so
  /// every fft_pass launch stays unit-stride.
  std::vector<Complex> tw;
  std::vector<std::size_t> stage_off;

  /// Bit-reversal swap pairs (i < j only) for the in-place complex fft().
  std::vector<std::uint32_t> rev_i, rev_j;

  /// brev[j] = bit-reverse of j — the frequency a slot j holds after the
  /// scatter (inverse heads index the spectrum through this).
  std::vector<std::uint32_t> brev;

  /// fwd_perm[j] = Makhoul-pack source index of bit-reversed slot j: the
  /// composed gather map pack∘brev, so the forward head reads the real
  /// input straight into butterfly-ready slots.
  std::vector<std::uint32_t> fwd_perm;

  /// DCT phase factors e^{-iπk/(2n)}, k < n (plan-owned: the old per-call
  /// mutex-guarded dct_phases() map is gone).
  std::vector<Complex> ph;

  const double* tw_flat() const {
    return reinterpret_cast<const double*>(tw.data());
  }
  const double* ph_flat() const {
    return reinterpret_cast<const double*>(ph.data());
  }
  /// Last-stage (len = n) twiddle slice: e^{-2πik/n}, k < n/2.
  const double* tw_last() const {
    return tw_flat() + 2 * stage_off.back();
  }
};

/// The process-wide plan for size n (power of two, n ≥ 2). Lock-free after
/// the first build per size: a log2-indexed array of atomic slots, so the
/// pooled row/column passes hit a single acquire-load — no mutex, no map.
const Plan& plan(std::size_t n);

/// Caller-owned scratch slab for the executors: one interleaved-complex
/// buffer (2n doubles) per pool worker. Reserve is cheap when already
/// sized; the solver keeps one instance across iterations so the hot path
/// never allocates.
class PlanScratch {
 public:
  void reserve(std::size_t n, std::size_t workers) {
    const std::size_t need = 2 * n;
    if (need > stride_) stride_ = need;
    if (buf_.size() < stride_ * workers) buf_.resize(stride_ * workers);
  }
  double* slot(std::size_t worker) { return buf_.data() + worker * stride_; }

 private:
  std::vector<double> buf_;
  std::size_t stride_ = 0;
};

/// One 2-D pass over one array: transform every line of `src` into `dst`
/// (same shape; src == dst for in place) with the given 1-D kind.
struct PassOp {
  const double* src = nullptr;
  double* dst = nullptr;
  Kind1D kind = Kind1D::kDct;
};

/// Called after each column pair (c0, c1) of a run_cols pass lands
/// (c1 == c0 for the degenerate single-column case), while the pair is
/// still cache-hot. Pairs may run on different workers concurrently; hooks
/// must write disjoint state per pair (the spectral scale does).
using ColHook = std::function<void(std::size_t c0, std::size_t c1)>;

/// Transforms dimension 1 (each contiguous row) of every op, pairing rows
/// (2p, 2p+1) through one complex FFT. All (op, pair) items of every op fan
/// out in a single pool dispatch; serial when pool is null.
void run_rows(const PassOp* ops, std::size_t num_ops, std::size_t rows,
              std::size_t cols, ThreadPool* pool, PlanScratch& scratch);

/// Transforms dimension 0 (each strided column) of every op, pairing
/// adjacent columns — a column pair is 16-byte contiguous at every element,
/// so there is no gather/scatter copy. `hook`, when non-null, fires once
/// per finished column pair.
void run_cols(const PassOp* ops, std::size_t num_ops, std::size_t rows,
              std::size_t cols, ThreadPool* pool, PlanScratch& scratch,
              const ColHook* hook = nullptr);

/// The pair core (exposed for tests): transform sequences a and b — length
/// p.n, elements at `stride` — in one complex FFT. sb may equal sa (the
/// self-pair used for an odd leftover line); z is scratch of 2·p.n doubles.
void transform_pair(const Plan& p, Kind1D kind, const double* sa,
                    const double* sb, double* da, double* db,
                    std::size_t stride, double* z);

}  // namespace xplace::fft
