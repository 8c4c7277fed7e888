#pragma once

// Multi-tenant session engine (DESIGN.md §15) — the "AL-as-a-service"
// serving core the ROADMAP's north star asks for.
//
// OnlineAlDriver runs ONE online-AL loop to completion, with the oracle
// called inline. The SessionEngine inverts that control flow for a
// daemon: many concurrent sessions, each an open online-AL trajectory,
// advance through a suggest / observe request protocol while the engine
// owns the expensive state. Both schedule the same per-trajectory step
// (suggest, observe, the due full refit, snapshot, restore); the engine
// adds only the store, the queues and drain, the retrain pool with its
// jobs and epochs, and the mailboxes. Three structural wins over N
// drivers:
//
//   1. Sharded session store — sessions live in fixed shards, each with
//      its own mutex and request queue, addressable by id. A session
//      holds its backends, workspace arena, rng stream and resilience
//      state; nothing is shared between sessions except the immutable
//      per-grid context (scaled features + SharedBatchContext distance
//      base), so shard traffic never contends on model state.
//   2. Micro-batched prediction — drain() coalesces every queued
//      suggest/query across sessions into one pass executed on the
//      ThreadPool (`ALAMR_THREADS`). Per session the sweep rides the
//      candidate-panel path (predict_candidates): O(M·n) panel resumes
//      instead of an O(M·n²) fresh solve per request, bit-identical by
//      the panel and distance-base-gather contracts.
//   3. Off-path retrains — the step's full refit runs on background
//      workers against a frozen snapshot (cloned backends + copied
//      labels) and atomically swaps in under the session's epoch
//      counter; the driver runs the same refit in place. The request
//      path only ever pays panel resumes and one-row Cholesky extends;
//      queries in flight finish on the old posterior.
//
// Determinism contract: every session draws only from its own rng
// stream, consults only its own fault injector, and its requests are
// processed in enqueue order — so per-session results are byte-identical
// to a serial OnlineAlDriver run at any thread count and any shard
// count (tested at 1 and 4 threads, and against the textbook loop in
// tests/reference_online.hpp). At retrain_stride == 1 a session runs the
// driver's schedule; larger strides trade refit freshness for throughput
// (add_point extends at fixed hyperparameters between full refits) — a
// serving-schedule knob, deliberately outside the checkpoint
// fingerprint.

#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "alamr/core/online.hpp"
#include "alamr/core/trace.hpp"

namespace alamr::core {

using SessionId = std::uint64_t;

struct ServeOptions {
  /// Fixed shard count of the session store (>= 1).
  std::size_t shards = 8;
  /// Background retrain workers. 0 runs retrains inline at the point
  /// they are scheduled (same math, no off-path latency win).
  std::size_t retrain_workers = 2;
  /// Checkpoint generations retained per session (PR9 frames).
  std::size_t checkpoint_retain = 3;
};

struct SessionOptions {
  /// The driver-compatible trajectory configuration (budgets, fit
  /// effort, backend, resilience, fault plan).
  OnlineAlOptions al;
  /// Seed of the session's private rng stream.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  /// Full (optimizing) refits happen on every retrain_stride-th AL
  /// observation; in between, observations extend the posterior at fixed
  /// hyperparameters (one-row Cholesky extend + panel append). 1 = refit
  /// every observation, the OnlineAlDriver recipe bit for bit.
  std::size_t retrain_stride = 1;
  /// Durable checkpoint path for checkpoint/evict/restore; empty = the
  /// session is memory-only.
  std::filesystem::path checkpoint;
};

/// One suggest-next-point answer. `done` means the session has nothing
/// left to suggest (budget spent, grid exhausted, or no safe candidate);
/// otherwise the client runs the experiment described by `features` (raw
/// grid units) and reports back via observe()/observe_failure().
struct Suggestion {
  bool done = false;
  bool initial_phase = false;
  std::size_t grid_row = 0;
  std::vector<double> features;
};

/// Posterior over caller-supplied query points (raw grid units; the
/// engine applies the session's feature scaling). log10 response space,
/// like the driver's models.
struct QueryResult {
  gp::Prediction cost;
  gp::Prediction memory;
};

struct SessionStatus {
  std::size_t records = 0;
  std::size_t init_done = 0;
  std::size_t al_done = 0;
  std::size_t remaining = 0;
  std::size_t oracle_giveups = 0;
  bool suggestion_pending = false;
  bool done = false;
  bool exhausted_safe_candidates = false;
  /// Posterior generation: bumped by every retrain swap.
  std::uint64_t epoch = 0;
  /// Resilience posture of the two surrogates (kHealthy when the
  /// resilience decorator is disabled).
  resilience::Health cost_health = resilience::Health::kHealthy;
  resilience::Health mem_health = resilience::Health::kHealthy;
  gp::BackendKind cost_active = gp::BackendKind::kExact;
  gp::BackendKind mem_active = gp::BackendKind::kExact;
};

class SessionEngine {
 public:
  explicit SessionEngine(ServeOptions options = {});
  ~SessionEngine();

  SessionEngine(const SessionEngine&) = delete;
  SessionEngine& operator=(const SessionEngine&) = delete;

  // -- Session lifecycle ----------------------------------------------------

  /// Opens a fresh session over `grid` (raw feature rows). The setup
  /// checks are OnlineAlDriver's (std::invalid_argument for an empty
  /// grid, a NaN or infinite feature, or bad budgets); duplicate ids
  /// throw OnlineContractError.
  void open_session(SessionId id, linalg::Matrix grid,
                    const Strategy& strategy, SessionOptions options);

  /// Re-opens a previously evicted (or checkpointed) session from its
  /// durable frames: options.checkpoint must name the path, and the
  /// saved fingerprint must match (grid, strategy, options.al, fault
  /// plan) — the same compatibility rule as OnlineAlDriver resume, and
  /// the same frame format, so driver checkpoints restore into the
  /// engine and vice versa. An id that is already open throws
  /// OnlineContractError before anything is loaded.
  void restore_session(SessionId id, linalg::Matrix grid,
                       const Strategy& strategy, SessionOptions options);

  /// Saves a durable checkpoint frame (requires options.checkpoint).
  /// Not legal while a suggestion is outstanding.
  void checkpoint_session(SessionId id);

  /// checkpoint_session + drop from the store (restore_session brings it
  /// back byte-identically).
  void evict_session(SessionId id);

  /// Drops a session without persistence.
  void close_session(SessionId id);

  /// Completes a session: joins any in-flight retrain and returns the
  /// driver-shaped result (records + final models), dropping it from the
  /// store.
  OnlineResult finish_session(SessionId id);

  // -- Asynchronous request protocol ----------------------------------------
  //
  // enqueue_* appends to the session's shard queue (thread-safe, cheap);
  // drain() processes every queued request — one coalesced micro-batch —
  // and the answers land in per-session FIFO mailboxes.

  void enqueue_suggest(SessionId id);
  void enqueue_observe(SessionId id, double cost, double memory);
  /// The experiment could not be run (infrastructure failure): the
  /// suggested candidate is abandoned, like a driver oracle give-up.
  void enqueue_observe_failure(SessionId id);
  /// A NaN or infinite query feature is an OnlineContractError (raised
  /// by drain() / query_posterior before any model is touched).
  void enqueue_query(SessionId id, linalg::Matrix x);

  /// Processes all queued requests; returns how many. Coalesces the
  /// pending predict work into one ThreadPool pass (serially per
  /// session, in enqueue order). The first per-session error (e.g. an
  /// OnlineContractError) is rethrown after every other session's batch
  /// completed.
  std::size_t drain();

  std::optional<Suggestion> take_suggestion(SessionId id);
  std::optional<QueryResult> take_query_result(SessionId id);

  // -- Synchronous conveniences ---------------------------------------------
  //
  // Process on the calling thread immediately, bypassing the queues —
  // the per-session-serial path (and the bench baseline arm).

  Suggestion suggest(SessionId id);
  void observe(SessionId id, double cost, double memory);
  void observe_failure(SessionId id);
  QueryResult query_posterior(SessionId id, const linalg::Matrix& x);

  // -- Introspection --------------------------------------------------------

  std::size_t session_count() const;
  SessionStatus status(SessionId id) const;
  /// The session's private trace collector: serve.requests,
  /// serve.retrain_swaps, plus every model-layer counter its operations
  /// touched. Engine-wide counters (serve.batched_sweeps,
  /// serve.coalesce_width) go to the caller's collector at drain().
  trace::TraceReport session_trace(SessionId id) const;

  const ServeOptions& options() const noexcept { return options_; }

 private:
  struct Impl;
  ServeOptions options_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace alamr::core
