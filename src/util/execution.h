// Pluggable execution backend for the placement flow.
//
// The paper's placer owes its speed to massively parallel per-net/per-cell
// GPU kernels; this CPU reproduction runs each GP kernel as one entry point
// that takes an optional ThreadPool. An ExecutionContext names which of the
// two backends a flow runs on and owns the one shared ThreadPool the GP
// layers dispatch onto:
//
//   GlobalPlacer ──▶ GradientEngine ──▶ ops kernels (scatter/gather/fused WA)
//                └─▶ PoissonSolver  ──▶ fft 2-D transforms
//
// Legalization and detailed placement run on the calling thread at any
// thread count (DESIGN.md §9 says which passes pool and why).
//
// Determinism contract (see DESIGN.md §9):
//   * serial backend: bitwise-identical to the historical single-threaded
//     flow — it runs the exact same code paths,
//   * threadpool backend: bitwise-deterministic run-to-run for a fixed
//     thread count. The WA, gather and transform kernels give the serial
//     bits at any pool size; the density scatter folds per-worker maps in
//     worker order, so its bits depend on the pool size.
//
// Contexts are cheap value types (a backend tag + a shared_ptr pool); copies
// share the pool. The flow-level selection comes from `--threads N` or the
// XPLACE_THREADS env var via from_threads()/from_env().
#pragma once

#include <cstddef>
#include <memory>

#include "util/thread_pool.h"

namespace xplace::telemetry {
class Registry;
}

namespace xplace {

enum class ExecBackend { kSerial, kThreadPool };

class ExecutionContext {
 public:
  /// Default-constructed context is the serial backend.
  ExecutionContext() = default;

  static ExecutionContext serial() { return ExecutionContext(); }

  /// Threadpool backend with an owned pool of `threads` workers
  /// (0 = hardware concurrency). A pool of 1 degenerates to serial.
  static ExecutionContext threaded(std::size_t threads = 0);

  /// Backend from the XPLACE_THREADS env var: > 1 selects the threadpool
  /// backend over the process-wide shared pool; unset/0/1 is serial.
  static ExecutionContext from_env();

  /// Backend from a config/CLI thread count:
  ///   0  → from_env()            (the default: env-controlled, serial if unset)
  ///   1  → serial
  ///   N>1 → threadpool with N threads
  ///   <0 → threadpool sized to hardware concurrency
  static ExecutionContext from_threads(int threads);

  ExecBackend backend() const { return backend_; }
  const char* backend_name() const {
    return backend_ == ExecBackend::kSerial ? "serial" : "threadpool";
  }

  /// Worker count the backend executes with (1 for serial).
  std::size_t threads() const { return pool_ ? pool_->size() : 1; }

  /// True when the GP kernels should be handed the pool.
  bool parallel() const { return pool_ != nullptr && pool_->size() > 1; }

  /// The shared pool, or nullptr on the serial backend.
  ThreadPool* pool() const { return pool_.get(); }

  /// Publishes backend configuration + pool utilization into `registry`:
  /// `exec.threads`, `exec.backend` (0 serial / 1 threadpool), and the pool's
  /// `exec.pool.*` gauges/counters. Idempotent (snapshot overwrite).
  void publish(telemetry::Registry& registry) const;

 private:
  ExecBackend backend_ = ExecBackend::kSerial;
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace xplace
