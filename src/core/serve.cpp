#include "alamr/core/serve.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "alamr/core/parallel.hpp"
#include "online_session.hpp"

namespace alamr::core {

namespace {

std::string grid_key(const linalg::Matrix& grid) {
  trace::Fingerprint fp;
  fp.add("serve.grid.v1");
  fp.add(static_cast<std::uint64_t>(grid.rows()));
  fp.add(static_cast<std::uint64_t>(grid.cols()));
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    for (std::size_t c = 0; c < grid.cols(); ++c) fp.add(grid(r, c));
  }
  return fp.hex();
}

// ---------------------------------------------------------------------------
// Off-path retrain machinery. A job is the session's due Refit on cloned
// backends, copied labels and the rng stream and fault injector BY VALUE,
// so it races with nothing; it is also its own single-assignment result
// slot (`done` under `m`). The session joins (adopts the refit) at its
// next suggest/observe; queries never join and keep reading the old
// posterior.
// ---------------------------------------------------------------------------

struct RetrainJob {
  Refit refit;
  /// The owning session's collector, shared so a job outliving its
  /// session (closed, or discarded by a failed restore) writes into live
  /// memory.
  std::shared_ptr<trace::TraceCollector> collector;
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
};

void run_retrain_job(RetrainJob& job) {
  try {
    trace::ScopedCollector tc(*job.collector);
    job.refit.run();
  } catch (...) {
    job.error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lk(job.m);
    job.done = true;
  }
  job.cv.notify_all();
}

class RetrainPool {
 public:
  explicit RetrainPool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) {
      threads_.emplace_back([this] { loop(); });
    }
  }

  ~RetrainPool() { stop(); }

  /// 0-worker pools run the job inline: same math, no off-path latency.
  void schedule(std::shared_ptr<RetrainJob> job) {
    if (threads_.empty()) {
      run_retrain_job(*job);
      return;
    }
    {
      std::lock_guard<std::mutex> lk(m_);
      queue_.push_back(std::move(job));
    }
    cv_.notify_one();
  }

  /// Work-stealing join support: removes `job` from the queue if a worker
  /// has not picked it up yet, and the caller runs it inline — same math,
  /// same bits — instead of sleeping through a scheduler handoff. False
  /// when the job is already in flight (or finished); the caller falls
  /// back to waiting on it.
  bool steal(const RetrainJob* job) {
    std::lock_guard<std::mutex> lk(m_);
    const auto it = std::find_if(
        queue_.begin(), queue_.end(),
        [job](const std::shared_ptr<RetrainJob>& q) { return q.get() == job; });
    if (it == queue_.end()) return false;
    queue_.erase(it);
    return true;
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

 private:
  void loop() {
    // Retrain workers run their fits serially inline: drained batches can
    // block on a job while occupying every compute-pool lane, so
    // fanning the fit out over that same pool would deadlock. Serial
    // execution is bit-identical by the parallel determinism contract.
    const ThreadPool::ScopedInline serial;
    for (;;) {
      std::shared_ptr<RetrainJob> job;
      {
        std::unique_lock<std::mutex> lk(m_);
        cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
        // Queued jobs are completed even while stopping: a joiner may be
        // blocked on them.
        if (queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      run_retrain_job(*job);
    }
  }

  std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<RetrainJob>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// One open trajectory: the shared online step plus the engine's serving
// state. Everything mutable is guarded by op_mutex (one request at a time
// per session); the drain pass and the synchronous conveniences both go
// through it.
// ---------------------------------------------------------------------------

struct Session {
  Session(SessionId id_in, std::shared_ptr<const GridContext> ctx,
          const Strategy& strategy, SessionOptions options)
      : id(id_in),
        checkpoint(std::move(options.checkpoint)),
        al(std::move(ctx), strategy, std::move(options.al),
           stats::Rng(options.seed), options.retrain_stride) {}

  SessionId id;
  std::filesystem::path checkpoint;
  OnlineSession al;
  std::shared_ptr<RetrainJob> retrain;  // in-flight retrain, if any
  std::uint64_t epoch = 0;

  std::shared_ptr<trace::TraceCollector> collector =
      std::make_shared<trace::TraceCollector>();
  mutable std::mutex op_mutex;
  std::deque<Suggestion> suggestions;
  std::deque<QueryResult> query_results;
};

/// Runs `fn` with trace counters and fault-site consultations routed to
/// session `s`.
template <typename Fn>
decltype(auto) in_scope(Session& s, Fn&& fn) {
  trace::ScopedCollector tc(*s.collector);
  std::optional<faults::ScopedFaultInjector> fi;
  if (faults::FaultInjector* injector = s.al.injector()) fi.emplace(*injector);
  return fn();
}

struct Request {
  enum class Kind { kSuggest, kObserve, kObserveFailure, kQuery };
  Kind kind = Kind::kSuggest;
  SessionId id = 0;
  double cost = 0.0;
  double memory = 0.0;
  linalg::Matrix query{0, 0};
};

struct Shard {
  mutable std::mutex m;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions;
  std::deque<Request> queue;
};

}  // namespace

// ---------------------------------------------------------------------------
// Engine implementation
// ---------------------------------------------------------------------------

struct SessionEngine::Impl {
  explicit Impl(const ServeOptions& options)
      : options_(options),
        shards_(std::max<std::size_t>(options.shards, 1)),
        retrain_pool_(options.retrain_workers) {}

  // -- store ----------------------------------------------------------------

  Shard& shard_of(SessionId id) {
    // Fibonacci spread so consecutive ids land on different shards.
    const std::uint64_t h = id * 0x9e3779b97f4a7c15ULL;
    return shards_[static_cast<std::size_t>(h >> 32) % shards_.size()];
  }

  /// The session open under `id`; `take` also drops it from the store.
  std::shared_ptr<Session> find_session(SessionId id, bool take = false) {
    Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lk(shard.m);
    const auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) {
      throw std::invalid_argument("SessionEngine: unknown session id " +
                                  std::to_string(id));
    }
    std::shared_ptr<Session> s = it->second;
    if (take) shard.sessions.erase(it);
    return s;
  }

  std::shared_ptr<const GridContext> acquire_context(linalg::Matrix grid) {
    const std::string key = grid_key(grid);
    std::lock_guard<std::mutex> lk(contexts_mutex_);
    if (const auto it = contexts_.find(key); it != contexts_.end()) {
      if (std::shared_ptr<const GridContext> sp = it->second.lock()) return sp;
    }
    auto sp = std::make_shared<const GridContext>(std::move(grid));
    contexts_[key] = sp;
    return sp;
  }

  std::shared_ptr<Session> make_session(SessionId id, linalg::Matrix grid,
                                        const Strategy& strategy,
                                        SessionOptions options) {
    validate_online_setup(grid, options.al, "SessionEngine");
    return std::make_shared<Session>(id, acquire_context(std::move(grid)),
                                     strategy, std::move(options));
  }

  /// Fails before anything is loaded or built for `id`.
  void require_free(SessionId id) {
    Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lk(shard.m);
    if (shard.sessions.count(id) != 0) {
      throw OnlineContractError("SessionEngine: session id already open");
    }
  }

  void insert_session(std::shared_ptr<Session> s) {
    Shard& shard = shard_of(s->id);
    std::lock_guard<std::mutex> lk(shard.m);
    if (!shard.sessions.emplace(s->id, std::move(s)).second) {
      throw OnlineContractError("SessionEngine: session id already open");
    }
  }

  // -- retrain lifecycle ----------------------------------------------------

  /// Hands the session's due full refit, if any, to the retrain pool on
  /// clones of its models.
  void schedule_retrain(Session& s) {
    if (!s.al.refit_due()) return;
    auto job = std::make_shared<RetrainJob>();
    job->refit = s.al.take_refit(/*clone=*/true);
    job->collector = s.collector;
    s.retrain = job;
    trace::count("serve.retrains_scheduled");
    retrain_pool_.schedule(std::move(job));
  }

  /// Swaps a finished (blocking until finished) retrain in: models, rng
  /// stream, fault-injector counters, epoch. Any rng draws or injector
  /// consultations other requests made between schedule and join are
  /// deterministically superseded — the job's copies are the canonical
  /// continuation, which is what makes the trajectory byte-identical to
  /// the inline (serial) schedule.
  void join_retrain(Session& s) {
    if (!s.retrain) return;
    const std::shared_ptr<RetrainJob> job = std::move(s.retrain);
    s.retrain.reset();
    // Work-stealing join: if the worker has not picked the job up yet,
    // run it right here. On a saturated box this degrades gracefully to
    // inline retrains instead of paying a sleep + scheduler handoff per
    // swap; when workers keep up, the steal misses and we wait as before.
    if (retrain_pool_.steal(job.get())) {
      trace::count("serve.retrain_steals");
      run_retrain_job(*job);
    }
    std::unique_lock<std::mutex> lk(job->m);
    job->cv.wait(lk, [&] { return job->done; });
    if (job->error) std::rethrow_exception(job->error);
    s.al.adopt(job->refit);
    ++s.epoch;
    trace::count("serve.retrain_swaps");
  }

  // -- per-session request processing (op_mutex held) -----------------------

  Suggestion process_suggest(Session& s) {
    join_retrain(s);
    trace::count("serve.requests");
    return s.al.suggest();
  }

  void process_observe(Session& s, double cost, double memory) {
    join_retrain(s);
    trace::count("serve.requests");
    s.al.observe(cost, memory);
    schedule_retrain(s);
  }

  void process_observe_failure(Session& s) {
    join_retrain(s);
    trace::count("serve.requests");
    s.al.observe_failure();
    trace::count("serve.observe_failures");
    schedule_retrain(s);
  }

  QueryResult process_query(Session& s, const linalg::Matrix& x) {
    for (const double v : x.data()) {
      if (!std::isfinite(v)) {
        throw OnlineContractError(
            "SessionEngine: non-finite feature in a posterior query");
      }
    }
    trace::count("serve.requests");
    // Queries deliberately do NOT join an in-flight retrain: they are
    // served on the epoch current when they run (the old posterior), so
    // the read path never blocks on a background rebuild. The one
    // exception is a query racing the session's FIRST fit, which has no
    // old posterior to serve.
    if (!s.al.fitted()) join_retrain(s);
    return s.al.query(x);
  }

  void process_request(Session& s, Request& r) {
    switch (r.kind) {
      case Request::Kind::kSuggest:
        s.suggestions.push_back(process_suggest(s));
        break;
      case Request::Kind::kObserve:
        process_observe(s, r.cost, r.memory);
        break;
      case Request::Kind::kObserveFailure:
        process_observe_failure(s);
        break;
      case Request::Kind::kQuery:
        s.query_results.push_back(process_query(s, r.query));
        break;
    }
  }

  // -- queueing + drain -----------------------------------------------------

  void enqueue(Request r) {
    Shard& shard = shard_of(r.id);
    std::lock_guard<std::mutex> lk(shard.m);
    if (shard.sessions.find(r.id) == shard.sessions.end()) {
      throw std::invalid_argument("SessionEngine: unknown session id " +
                                  std::to_string(r.id));
    }
    shard.queue.push_back(std::move(r));
  }

  std::size_t drain() {
    // One drain at a time; enqueues stay cheap and never block on it.
    std::lock_guard<std::mutex> drain_lk(drain_mutex_);

    struct SessionBatch {
      std::shared_ptr<Session> session;
      std::vector<Request> requests;
      bool has_sweep = false;
    };
    std::vector<SessionBatch> batches;
    std::unordered_map<SessionId, std::size_t> index;
    std::size_t total = 0;

    for (Shard& shard : shards_) {
      std::deque<Request> queue;
      std::lock_guard<std::mutex> lk(shard.m);
      queue.swap(shard.queue);
      for (Request& r : queue) {
        const auto it = shard.sessions.find(r.id);
        if (it == shard.sessions.end()) continue;  // closed since enqueue
        const auto [slot, inserted] = index.emplace(r.id, batches.size());
        if (inserted) batches.push_back({it->second, {}, false});
        SessionBatch& batch = batches[slot->second];
        if (r.kind == Request::Kind::kSuggest ||
            r.kind == Request::Kind::kQuery) {
          batch.has_sweep = true;
        }
        batch.requests.push_back(std::move(r));
        ++total;
      }
    }
    if (batches.empty()) return 0;

    std::size_t width = 0;
    for (const SessionBatch& b : batches) width += b.has_sweep ? 1 : 0;
    if (width > 0) {
      trace::count("serve.batched_sweeps");
      trace::count("serve.coalesce_width", width);
    }

    // Coalesced pass on the ThreadPool: one task per session, requests in
    // enqueue order inside it. Per-session errors are captured so one
    // broken session cannot poison its neighbors, then the first (lowest
    // batch index — deterministic) is rethrown.
    std::vector<std::exception_ptr> errors(batches.size());
    parallel_for(batches.size(), [&](std::size_t i) {
      SessionBatch& batch = batches[i];
      Session& s = *batch.session;
      std::lock_guard<std::mutex> lk(s.op_mutex);
      in_scope(s, [&] {
        for (Request& r : batch.requests) {
          try {
            process_request(s, r);
          } catch (...) {
            errors[i] = std::current_exception();
            break;  // this session's batch is poisoned; neighbors continue
          }
        }
      });
    });
    for (std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    return total;
  }

  template <typename Fn>
  decltype(auto) with_session(SessionId id, Fn&& fn) {
    const std::shared_ptr<Session> s = find_session(id);
    std::lock_guard<std::mutex> lk(s->op_mutex);
    return in_scope(*s, [&] { return fn(*s); });
  }

  // -- persistence ----------------------------------------------------------

  void save(Session& s) {
    if (s.checkpoint.empty()) {
      throw OnlineContractError(
          "SessionEngine: session has no checkpoint path");
    }
    join_retrain(s);  // fold the in-flight posterior in first
    const OnlineCheckpoint snap = s.al.snapshot();
    trace::count("serve.checkpoints");
    save_online_checkpoint(snap, s.checkpoint, options_.checkpoint_retain);
  }

  void restore(Session& s) {
    if (s.checkpoint.empty()) {
      throw OnlineContractError(
          "SessionEngine: restore_session requires a checkpoint path");
    }
    const std::optional<OnlineCheckpoint> resumed =
        load_online_checkpoint(s.checkpoint, options_.checkpoint_retain);
    if (!resumed) {
      throw std::runtime_error("SessionEngine: no checkpoint at " +
                               s.checkpoint.string());
    }
    if (resumed->fingerprint != s.al.fingerprint()) {
      throw std::runtime_error(
          "SessionEngine: checkpoint at " + s.checkpoint.string() +
          " was written by an incompatible configuration (fingerprint "
          "mismatch); refusing to restore");
    }
    trace::count("serve.sessions_restored");
    s.al.restore(*resumed);
    schedule_retrain(s);
  }

  ServeOptions options_;
  std::vector<Shard> shards_;
  std::mutex drain_mutex_;
  std::mutex contexts_mutex_;
  std::unordered_map<std::string, std::weak_ptr<const GridContext>> contexts_;
  // Declared last, so destroyed first: the workers are joined before the
  // sessions they retrain for go away.
  RetrainPool retrain_pool_;
};

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

SessionEngine::SessionEngine(ServeOptions options)
    : options_(options), impl_(std::make_unique<Impl>(options_)) {}

SessionEngine::~SessionEngine() = default;

void SessionEngine::open_session(SessionId id, linalg::Matrix grid,
                                 const Strategy& strategy,
                                 SessionOptions options) {
  std::shared_ptr<Session> s =
      impl_->make_session(id, std::move(grid), strategy, std::move(options));
  impl_->insert_session(std::move(s));
  trace::count("serve.sessions_opened");
}

void SessionEngine::restore_session(SessionId id, linalg::Matrix grid,
                                    const Strategy& strategy,
                                    SessionOptions options) {
  impl_->require_free(id);  // before anything is loaded or scheduled
  std::shared_ptr<Session> s =
      impl_->make_session(id, std::move(grid), strategy, std::move(options));
  in_scope(*s, [&] { impl_->restore(*s); });
  impl_->insert_session(std::move(s));
}

void SessionEngine::checkpoint_session(SessionId id) {
  impl_->with_session(id, [&](Session& s) { impl_->save(s); });
}

void SessionEngine::evict_session(SessionId id) {
  impl_->with_session(id, [&](Session& s) { impl_->save(s); });
  const std::shared_ptr<Session> s = impl_->find_session(id, /*take=*/true);
  std::lock_guard<std::mutex> lk(s->op_mutex);  // let in-flight work land
  trace::count("serve.evictions");
}

void SessionEngine::close_session(SessionId id) {
  const std::shared_ptr<Session> s = impl_->find_session(id, /*take=*/true);
  std::lock_guard<std::mutex> lk(s->op_mutex);
  in_scope(*s, [&] { impl_->join_retrain(*s); });  // let it land
}

OnlineResult SessionEngine::finish_session(SessionId id) {
  const std::shared_ptr<Session> s = impl_->find_session(id, /*take=*/true);
  std::lock_guard<std::mutex> lk(s->op_mutex);
  return in_scope(*s, [&] {
    impl_->join_retrain(*s);
    return s->al.release();
  });
}

void SessionEngine::enqueue_suggest(SessionId id) {
  impl_->enqueue(Request{Request::Kind::kSuggest, id});
}

void SessionEngine::enqueue_observe(SessionId id, double cost, double memory) {
  impl_->enqueue(Request{Request::Kind::kObserve, id, cost, memory});
}

void SessionEngine::enqueue_observe_failure(SessionId id) {
  impl_->enqueue(Request{Request::Kind::kObserveFailure, id});
}

void SessionEngine::enqueue_query(SessionId id, linalg::Matrix x) {
  Request r{Request::Kind::kQuery, id};
  r.query = std::move(x);
  impl_->enqueue(std::move(r));
}

std::size_t SessionEngine::drain() { return impl_->drain(); }

std::optional<Suggestion> SessionEngine::take_suggestion(SessionId id) {
  const std::shared_ptr<Session> s = impl_->find_session(id);
  std::lock_guard<std::mutex> lk(s->op_mutex);
  if (s->suggestions.empty()) return std::nullopt;
  Suggestion out = std::move(s->suggestions.front());
  s->suggestions.pop_front();
  return out;
}

std::optional<QueryResult> SessionEngine::take_query_result(SessionId id) {
  const std::shared_ptr<Session> s = impl_->find_session(id);
  std::lock_guard<std::mutex> lk(s->op_mutex);
  if (s->query_results.empty()) return std::nullopt;
  QueryResult out = std::move(s->query_results.front());
  s->query_results.pop_front();
  return out;
}

Suggestion SessionEngine::suggest(SessionId id) {
  return impl_->with_session(
      id, [&](Session& s) { return impl_->process_suggest(s); });
}

void SessionEngine::observe(SessionId id, double cost, double memory) {
  impl_->with_session(
      id, [&](Session& s) { impl_->process_observe(s, cost, memory); });
}

void SessionEngine::observe_failure(SessionId id) {
  impl_->with_session(id,
                      [&](Session& s) { impl_->process_observe_failure(s); });
}

QueryResult SessionEngine::query_posterior(SessionId id,
                                           const linalg::Matrix& x) {
  return impl_->with_session(
      id, [&](Session& s) { return impl_->process_query(s, x); });
}

std::size_t SessionEngine::session_count() const {
  std::size_t n = 0;
  for (const Shard& shard : impl_->shards_) {
    std::lock_guard<std::mutex> lk(shard.m);
    n += shard.sessions.size();
  }
  return n;
}

SessionStatus SessionEngine::status(SessionId id) const {
  const std::shared_ptr<Session> s = impl_->find_session(id);
  std::lock_guard<std::mutex> lk(s->op_mutex);
  SessionStatus st = s->al.status();
  st.epoch = s->epoch;
  return st;
}

trace::TraceReport SessionEngine::session_trace(SessionId id) const {
  const std::shared_ptr<Session> s = impl_->find_session(id);
  std::lock_guard<std::mutex> lk(s->op_mutex);
  return s->collector->report();
}

}  // namespace alamr::core
