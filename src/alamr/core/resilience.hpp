#pragma once

// Resilience primitives for the online serving core (DESIGN.md §14):
//
//   * VirtualClock + BackoffPolicy + DeadlineExecutor — per-operation
//     deadlines with seeded deterministic exponential backoff. Time is a
//     virtual tick counter, never a wall clock, so a retry schedule is a
//     pure function of (policy seed, operation name, attempt index) and
//     byte-reproducible under ALAMR_FAULT_PLAN: the same faults produce
//     the same waits, the same give-ups, the same trajectory bytes.
//   * Event / Listener / note() — a thread-local failure-event channel.
//     Lower layers (cholesky jitter ladder, optimizer recovery) call
//     note(Event) at the exact points where an injected fault fires;
//     whoever installed a ScopedListener (the ResilientBackend decorator,
//     gp/backend.cpp) attributes the event to its circuit breaker. With
//     no listener installed the call is one thread-local pointer load.
//   * CircuitBreaker + Health — consecutive-failure trip counter with
//     half-open recovery pacing, and the healthy/degraded/halted state
//     machine surfaced through resilience.* trace counters.
//
// Like trace.hpp and faults.hpp this header is standalone (standard
// library + trace.hpp) and fully inline, so linalg/gp can participate
// without linking the core library. Only CLI/describe helpers live in
// src/core/resilience.cpp.
//
// Happy-path contract: with no faults armed and no numerical failures,
// every primitive here is byte-invisible — no rng draws, no FP work, no
// clock reads, no trace counters. The golden trajectory pins this.

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "alamr/core/trace.hpp"

namespace alamr::core::resilience {

namespace detail {

/// SplitMix64 finalizer — same mixing recipe as faults::detail::mix64 so
/// backoff jitter inherits the fault framework's statistical quality.
inline constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over an operation name: the per-op salt for backoff jitter.
inline constexpr std::uint64_t op_hash(std::string_view name) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace detail

// --- Virtual time ----------------------------------------------------------

/// Monotonic tick counter standing in for wall time. Retry waits advance
/// it; nothing ever reads a real clock, so schedules are reproducible.
class VirtualClock {
 public:
  std::uint64_t now() const noexcept { return now_; }
  void advance(std::uint64_t ticks) noexcept { now_ += ticks; }
  void reset() noexcept { now_ = 0; }

 private:
  std::uint64_t now_ = 0;
};

// --- Deterministic exponential backoff -------------------------------------

struct BackoffPolicy {
  std::uint64_t base_ticks = 16;   ///< wait before the first retry
  double multiplier = 2.0;         ///< exponential growth per attempt
  std::uint64_t max_ticks = 1024;  ///< ceiling on any single wait
  double jitter = 0.5;             ///< fraction of the wait randomized
  std::uint64_t seed = 0;          ///< salts the jitter stream
};

/// The wait before retry number `attempt` (attempt 1 = first retry) of the
/// operation whose name hashes to `op`. Pure function of its arguments:
/// full-jitter-style `d/2 + u*d/2` where u is a counter-hashed uniform,
/// never an rng draw — two runs with the same plan wait identically.
inline std::uint64_t backoff_ticks(const BackoffPolicy& policy,
                                   std::uint64_t op, std::uint64_t attempt) noexcept {
  double d = static_cast<double>(policy.base_ticks);
  for (std::uint64_t a = 1; a < attempt; ++a) {
    d *= policy.multiplier;
    if (d >= static_cast<double>(policy.max_ticks)) break;
  }
  const double cap = static_cast<double>(policy.max_ticks);
  if (d > cap) d = cap;
  if (policy.jitter <= 0.0) return static_cast<std::uint64_t>(d);
  const std::uint64_t h =
      detail::mix64(policy.seed ^ detail::mix64(op) ^ detail::mix64(attempt));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  const double jittered = d * (1.0 - policy.jitter) + d * policy.jitter * u;
  const std::uint64_t ticks = static_cast<std::uint64_t>(jittered);
  return ticks == 0 ? 1 : ticks;
}

// --- Deadline/retry executor -----------------------------------------------

enum class OpStatus : std::uint8_t { kOk, kTimeout, kFailed };

constexpr std::string_view to_string(OpStatus s) noexcept {
  switch (s) {
    case OpStatus::kOk: return "ok";
    case OpStatus::kTimeout: return "timeout";
    case OpStatus::kFailed: return "failed";
  }
  return "?";
}

/// Retries an operation under a per-operation tick deadline with
/// deterministic exponential backoff. The callable returns an OpStatus;
/// kTimeout/kFailed are retried after a backoff wait until either the
/// attempt budget or the deadline is exhausted. Exceptions escaping the
/// callable are terminal: they propagate to the caller unretried (the
/// callable classifies its own failures — transient errors become
/// kFailed, contract violations throw).
class DeadlineExecutor {
 public:
  struct Outcome {
    OpStatus status = OpStatus::kOk;
    std::uint32_t attempts = 0;      ///< total calls of the operation
    std::uint64_t waited_ticks = 0;  ///< total backoff applied
    bool deadline_exceeded = false;  ///< gave up on the deadline, not attempts
  };

  DeadlineExecutor() = default;
  DeadlineExecutor(BackoffPolicy policy, std::uint32_t max_attempts,
                   std::uint64_t deadline_ticks) noexcept
      : policy_(policy),
        max_attempts_(max_attempts == 0 ? 1 : max_attempts),
        deadline_ticks_(deadline_ticks) {}

  VirtualClock& clock() noexcept { return clock_; }
  const VirtualClock& clock() const noexcept { return clock_; }
  const BackoffPolicy& policy() const noexcept { return policy_; }
  std::uint32_t max_attempts() const noexcept { return max_attempts_; }

  template <typename Fn>
  Outcome execute(std::string_view op_name, Fn&& fn) {
    const std::uint64_t op = detail::op_hash(op_name);
    const std::uint64_t start = clock_.now();
    Outcome out;
    for (;;) {
      ++out.attempts;
      const OpStatus status = fn();
      out.status = status;
      if (status == OpStatus::kOk) {
        if (out.attempts > 1) {
          trace::count("resilience.op_recovered");
        }
        return out;
      }
      trace::count(status == OpStatus::kTimeout ? "resilience.op_timeouts"
                                                : "resilience.op_failures");
      if (out.attempts >= max_attempts_) {
        trace::count("resilience.op_giveups");
        return out;
      }
      const std::uint64_t wait = backoff_ticks(policy_, op, out.attempts);
      if (deadline_ticks_ != 0 &&
          clock_.now() + wait > start + deadline_ticks_) {
        out.deadline_exceeded = true;
        trace::count("resilience.op_deadline_exceeded");
        trace::count("resilience.op_giveups");
        return out;
      }
      clock_.advance(wait);
      out.waited_ticks += wait;
      trace::count("resilience.op_retries");
    }
  }

 private:
  VirtualClock clock_;
  BackoffPolicy policy_{};
  std::uint32_t max_attempts_ = 3;
  std::uint64_t deadline_ticks_ = 4096;
};

// --- Failure events --------------------------------------------------------

/// Failure events lower layers report while a guarded operation runs.
/// kCholeskyNonPsd / kOptDiverge are noted exactly where the matching
/// fault site fires (injected failures); real numerical failures reach
/// breakers through the exception path instead, so a fault-free run that
/// legitimately climbs the jitter ladder never feeds a breaker.
enum class Event : std::uint8_t {
  kCholeskyNonPsd = 0,
  kOptDiverge = 1,
  kAcquireTimeout = 2,
  kOracleFailure = 3,
  kIoCorruption = 4,
};

inline constexpr std::size_t kEventCount = 5;

constexpr std::string_view to_string(Event e) noexcept {
  switch (e) {
    case Event::kCholeskyNonPsd: return "cholesky.non_psd";
    case Event::kOptDiverge: return "opt.diverge";
    case Event::kAcquireTimeout: return "acquire.timeout";
    case Event::kOracleFailure: return "oracle.failure";
    case Event::kIoCorruption: return "io.corruption";
  }
  return "?";
}

/// Receives failure events noted on this thread while installed.
class Listener {
 public:
  virtual ~Listener() = default;
  virtual void on_event(Event event) = 0;
};

namespace detail {
inline thread_local Listener* t_listener = nullptr;
}  // namespace detail

/// The listener installed on this thread (nullptr when none).
inline Listener* current_listener() noexcept { return detail::t_listener; }

/// Reports a failure event to the current thread's listener, if any.
/// Disarmed cost: one thread-local load and a branch.
inline void note(Event event) {
  if (Listener* l = detail::t_listener) l->on_event(event);
}

/// Installs `listener` as this thread's event sink for the current scope.
/// Scopes nest; the previous sink is restored on destruction.
class ScopedListener {
 public:
  explicit ScopedListener(Listener& listener) noexcept
      : previous_(detail::t_listener) {
    detail::t_listener = &listener;
  }
  ScopedListener(const ScopedListener&) = delete;
  ScopedListener& operator=(const ScopedListener&) = delete;
  ~ScopedListener() { detail::t_listener = previous_; }

 private:
  Listener* previous_;
};

// --- Circuit breaker + health ----------------------------------------------

enum class Health : std::uint8_t { kHealthy = 0, kDegraded = 1, kHalted = 2 };

constexpr std::string_view to_string(Health h) noexcept {
  switch (h) {
    case Health::kHealthy: return "healthy";
    case Health::kDegraded: return "degraded";
    case Health::kHalted: return "halted";
  }
  return "?";
}

/// Consecutive-failure circuit breaker with half-open pacing. Failure
/// events and caught recoverable exceptions call record_failure();
/// completed operations call record_success(), which both closes the
/// consecutive-failure window and advances the ok streak that paces
/// half-open recovery probes. All-integer state: armed or not, the
/// breaker never perturbs numerics.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(std::uint32_t threshold = 3) noexcept
      : threshold_(threshold == 0 ? 1 : threshold) {}

  void record_failure() noexcept {
    ++consecutive_failures_;
    ++total_failures_;
    ok_streak_ = 0;
  }

  void record_success() noexcept {
    consecutive_failures_ = 0;
    ++ok_streak_;
  }

  /// True once the consecutive-failure count reaches the threshold.
  bool tripped() const noexcept { return consecutive_failures_ >= threshold_; }

  /// Acknowledge a trip (the owner stepped its degradation ladder):
  /// reopens the window for the next rung.
  void acknowledge_trip() noexcept {
    ++trips_;
    consecutive_failures_ = 0;
    ok_streak_ = 0;
  }

  std::uint32_t threshold() const noexcept { return threshold_; }
  std::uint64_t consecutive_failures() const noexcept {
    return consecutive_failures_;
  }
  std::uint64_t total_failures() const noexcept { return total_failures_; }
  std::uint64_t ok_streak() const noexcept { return ok_streak_; }
  std::uint64_t trips() const noexcept { return trips_; }

  /// Restart the half-open pacing window without touching the failure
  /// counters (called after a recovery probe, successful or not).
  void reset_streak() noexcept { ok_streak_ = 0; }

  /// Checkpoint restore: reload the exact counter state.
  void restore(std::uint64_t consecutive, std::uint64_t total,
               std::uint64_t streak, std::uint64_t trips) noexcept {
    consecutive_failures_ = consecutive;
    total_failures_ = total;
    ok_streak_ = streak;
    trips_ = trips;
  }

 private:
  std::uint32_t threshold_;
  std::uint64_t consecutive_failures_ = 0;
  std::uint64_t total_failures_ = 0;
  std::uint64_t ok_streak_ = 0;
  std::uint64_t trips_ = 0;
};

// --- Options ---------------------------------------------------------------

/// Knobs for the whole resilience layer, embedded in AlOptions and
/// OnlineAlOptions. enabled=true is the default and byte-invisible while
/// nothing fails; enabled=false removes even the guard scaffolding.
struct Options {
  bool enabled = true;
  bool ladder = true;               ///< allow backend degradation steps
  std::uint32_t max_attempts = 3;   ///< per-op attempts within one rung
  std::uint32_t breaker_threshold = 3;
  std::uint64_t probe_after = 8;    ///< ok ops on a degraded rung per probe
  std::uint64_t deadline_ticks = 4096;
  BackoffPolicy backoff{};
};

// --- CLI helpers (src/core/resilience.cpp; callers link alamr::core) -------

/// Human-readable one-liner for logs/benches.
std::string describe(const Options& options);

/// Scans argv for "--no-resilience" / "--resilience=on|off". Returns the
/// requested enabled state, or nothing when the flag is absent.
bool parse_resilience_flag(int argc, char** argv, Options& options);

}  // namespace alamr::core::resilience
