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

#include "alamr/core/checkpoint.hpp"
#include "alamr/core/metrics.hpp"
#include "alamr/core/parallel.hpp"
#include "alamr/gp/kernels.hpp"

namespace alamr::core {

namespace {

linalg::Matrix gather_rows(const linalg::Matrix& src,
                           std::span<const std::size_t> rows) {
  // Same loop as the driver's gather_scaled: bit-identical tiles.
  linalg::Matrix out(rows.size(), src.cols());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < src.cols(); ++c) {
      out(r, c) = src(rows[r], c);
    }
  }
  return out;
}

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

}  // namespace

// ---------------------------------------------------------------------------
// Immutable per-grid state, shared by every session opened on a
// bit-identical grid: raw + scaled features, the fitted scaler, and the
// dataset-wide SharedBatchContext distance base that fits and panel sweeps
// gather from. Strictly read-only after construction, so sessions share it
// with no synchronization.
// ---------------------------------------------------------------------------

struct GridContext {
  linalg::Matrix grid;  // raw features; row indices are session currency
  data::FeatureScaler scaler;
  linalg::Matrix grid_scaled;
  SharedBatchContext batch;
  std::string key;

  GridContext(linalg::Matrix g, std::string k)
      : grid(std::move(g)),
        scaler(data::FeatureScaler::fit(grid)),
        grid_scaled(scaler.transform(grid)),
        batch(std::make_shared<const gp::DistanceBase>(grid_scaled)),
        key(std::move(k)) {}

  const gp::DistanceBase* base() const noexcept {
    return &batch.distance_base();
  }
};

namespace {

// ---------------------------------------------------------------------------
// Off-path retrain machinery. A job is a frozen snapshot — cloned
// backends, copied labels/rows, the session rng and fault-injector BY
// VALUE — so it races with nothing; the ticket is its single-assignment
// result slot. The session joins (swaps the result in) at its next
// suggest/observe; queries never join and keep reading the old posterior.
// ---------------------------------------------------------------------------

struct RetrainTicket {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  std::unique_ptr<gp::PosteriorBackend> cost;
  std::unique_ptr<gp::PosteriorBackend> mem;
  stats::Rng::State rng_after{};
  bool has_injector = false;
  std::array<std::uint64_t, faults::kSiteCount> hits{};
  std::array<std::uint64_t, faults::kSiteCount> fires{};
  std::exception_ptr error;
};

struct RetrainJob {
  std::shared_ptr<RetrainTicket> ticket;
  std::unique_ptr<gp::PosteriorBackend> cost;
  std::unique_ptr<gp::PosteriorBackend> mem;
  linalg::Matrix x{0, 0};  // gathered scaled features of the visited rows
  std::vector<double> yc;
  std::vector<double> ym;
  std::vector<std::size_t> rows;  // visited rows (distance-base gathers)
  std::shared_ptr<const GridContext> ctx;
  bool initial = false;   // the one-time thorough initial fit
  gp::GprOptions fit_opts;     // effort of THIS retrain's fit
  gp::GprOptions extend_opts;  // left on the swapped-in model: add_point
                               // extends at fixed theta between retrains
  stats::Rng rng{0};
  std::optional<faults::FaultInjector> injector;
  /// The owning session's collector (mutex-protected; the session is
  /// kept alive past the job by the join-before-destroy invariant).
  trace::TraceCollector* collector = nullptr;
};

void run_retrain_job(RetrainJob& job) {
  RetrainTicket& ticket = *job.ticket;
  try {
    trace::ScopedCollector tc(*job.collector);
    std::optional<faults::ScopedFaultInjector> fi;
    if (job.injector) fi.emplace(*job.injector);
    const gp::DistanceBase* base = job.ctx->base();
    job.cost->set_fit_options(job.fit_opts);
    job.mem->set_fit_options(job.fit_opts);
    job.cost->fit(job.x, job.yc, job.rng, base, job.rows);
    job.mem->fit(job.x, job.ym, job.rng, base, job.rows);
    // Between retrains the request path only pays one-row Cholesky
    // extends at the theta this fit just produced — re-optimizing there
    // would put the full-refit cost back on the request path.
    job.cost->set_fit_options(job.extend_opts);
    job.mem->set_fit_options(job.extend_opts);
  } catch (...) {
    ticket.error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lk(ticket.m);
    ticket.cost = std::move(job.cost);
    ticket.mem = std::move(job.mem);
    ticket.rng_after = job.rng.save_state();
    if (job.injector) {
      ticket.has_injector = true;
      const auto hits = job.injector->hit_counters();
      const auto fires = job.injector->fire_counters();
      std::copy(hits.begin(), hits.end(), ticket.hits.begin());
      std::copy(fires.begin(), fires.end(), ticket.fires.begin());
    }
    ticket.done = true;
  }
  ticket.cv.notify_all();
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

  /// Work-stealing join support: removes and returns the queued job
  /// carrying `ticket` if a worker has not picked it up yet. The caller
  /// runs it inline — same math, same bits — instead of sleeping through
  /// a scheduler handoff. Returns nullptr when the job is already in
  /// flight (or finished); the caller falls back to the ticket wait.
  std::shared_ptr<RetrainJob> steal(const RetrainTicket* ticket) {
    std::lock_guard<std::mutex> lk(m_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if ((*it)->ticket.get() == ticket) {
        std::shared_ptr<RetrainJob> job = std::move(*it);
        queue_.erase(it);
        return job;
      }
    }
    return nullptr;
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
    // block on a job's ticket while occupying every compute-pool lane, so
    // fanning the fit out over that same pool would deadlock. Serial
    // execution is bit-identical by the parallel determinism contract.
    const ThreadPool::ScopedInline serial;
    for (;;) {
      std::shared_ptr<RetrainJob> job;
      {
        std::unique_lock<std::mutex> lk(m_);
        cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
        // Queued jobs are completed even while stopping: a joiner may be
        // blocked on their tickets.
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
// One open trajectory. All mutable state is guarded by op_mutex (one
// request at a time per session); the drain pass and the synchronous
// conveniences both go through it.
// ---------------------------------------------------------------------------

struct PendingSuggestion {
  std::size_t local = 0;  // index into remaining at suggest time
  std::size_t row = 0;
  double mu_c = 0.0;
  double mu_m = 0.0;
  bool initial = false;
};

struct Session {
  SessionId id = 0;
  std::shared_ptr<const GridContext> ctx;
  std::unique_ptr<Strategy> strategy;
  SessionOptions options;
  std::string plan_spec;
  std::string fingerprint;

  std::optional<faults::FaultInjector> injector;
  stats::Rng rng{0};
  std::unique_ptr<gp::PosteriorBackend> model_cost;
  std::unique_ptr<gp::PosteriorBackend> model_mem;
  std::optional<linalg::Workspace> ws;  // pass arena, sized at open
  linalg::Matrix x_active{0, 0};        // gathered remaining-candidate tile

  bool track_regret = false;
  double limit_mb = 0.0;

  std::vector<std::size_t> remaining;
  std::vector<std::size_t> visited;
  std::vector<std::size_t> skipped;
  std::vector<double> log_cost;
  std::vector<double> log_mem;
  double cc = 0.0;
  double cr = 0.0;
  std::size_t init_done = 0;
  std::size_t al_done = 0;
  std::size_t since_retrain = 0;
  bool initial_fit_done = false;
  bool exhausted = false;
  std::size_t giveups = 0;
  std::vector<OnlineRecord> records;

  std::optional<PendingSuggestion> pending;
  std::shared_ptr<RetrainTicket> ticket;  // in-flight retrain, if any
  std::uint64_t epoch = 0;

  trace::TraceCollector collector;
  mutable std::mutex op_mutex;
  std::deque<Suggestion> suggestions;
  std::deque<QueryResult> query_results;
};

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

  ~Impl() {
    // Stop the workers before the shards (and their sessions, whose
    // collectors running jobs write into) are destroyed.
    retrain_pool_.stop();
  }

  // -- store ----------------------------------------------------------------

  Shard& shard_of(SessionId id) {
    // Fibonacci spread so consecutive ids land on different shards.
    const std::uint64_t h = id * 0x9e3779b97f4a7c15ULL;
    return shards_[static_cast<std::size_t>(h >> 32) % shards_.size()];
  }
  const Shard& shard_of(SessionId id) const {
    return const_cast<Impl*>(this)->shard_of(id);
  }

  std::shared_ptr<Session> find_session(SessionId id) const {
    const Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lk(shard.m);
    const auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) {
      throw std::invalid_argument("SessionEngine: unknown session id " +
                                  std::to_string(id));
    }
    return it->second;
  }

  std::shared_ptr<Session> take_session(SessionId id) {
    Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lk(shard.m);
    const auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) {
      throw std::invalid_argument("SessionEngine: unknown session id " +
                                  std::to_string(id));
    }
    std::shared_ptr<Session> s = std::move(it->second);
    shard.sessions.erase(it);
    return s;
  }

  std::shared_ptr<const GridContext> acquire_context(linalg::Matrix grid) {
    const std::string key = grid_key(grid);
    std::lock_guard<std::mutex> lk(contexts_mutex_);
    if (const auto it = contexts_.find(key); it != contexts_.end()) {
      if (std::shared_ptr<const GridContext> sp = it->second.lock()) return sp;
    }
    auto sp = std::make_shared<const GridContext>(std::move(grid), key);
    contexts_[key] = sp;
    return sp;
  }

  std::shared_ptr<Session> make_session(SessionId id, linalg::Matrix grid,
                                        const Strategy& strategy,
                                        SessionOptions options) {
    if (grid.rows() == 0) {
      throw std::invalid_argument("SessionEngine: empty candidate grid");
    }
    if (options.al.n_init == 0) {
      throw std::invalid_argument("SessionEngine: n_init must be >= 1");
    }
    if (options.al.n_init + options.al.iterations > grid.rows()) {
      throw std::invalid_argument(
          "SessionEngine: grid smaller than n_init + iterations");
    }
    if (options.retrain_stride == 0) options.retrain_stride = 1;

    auto s = std::make_shared<Session>();
    s->id = id;
    s->ctx = acquire_context(std::move(grid));
    s->strategy = strategy.clone();
    s->options = std::move(options);

    const faults::FaultPlan* plan_source = !s->options.al.plan.empty()
                                               ? &s->options.al.plan
                                               : faults::env_plan();
    if (plan_source != nullptr) {
      s->plan_spec = plan_source->to_string();
      s->injector.emplace(*plan_source);
    }
    s->fingerprint = online_run_fingerprint(s->ctx->grid, s->strategy->name(),
                                            s->options.al, s->plan_spec);
    s->rng = stats::Rng(s->options.seed);

    const auto kernel_factory = [] { return gp::make_paper_kernel(); };
    s->model_cost =
        gp::make_resilient_backend(s->options.al.backend,
                                   s->options.al.resilience, kernel_factory,
                                   s->options.al.initial_fit);
    s->model_mem =
        gp::make_resilient_backend(s->options.al.backend,
                                   s->options.al.resilience, kernel_factory,
                                   s->options.al.initial_fit);

    s->track_regret = !std::isnan(s->options.al.memory_limit_log10);
    s->limit_mb = s->track_regret
                      ? std::pow(10.0, s->options.al.memory_limit_log10)
                      : 0.0;

    const std::size_t rows = s->ctx->grid.rows();
    s->remaining.resize(rows);
    for (std::size_t i = 0; i < rows; ++i) s->remaining[i] = i;

    // Pre-size the pass arena like the simulator does: both models'
    // outputs coexist during a sweep, plus the larger scratch peak.
    const gp::WorkspaceBound bc = s->model_cost->workspace_bound(
        s->options.al.n_init, rows, s->options.al.iterations);
    const gp::WorkspaceBound bm = s->model_mem->workspace_bound(
        s->options.al.n_init, rows, s->options.al.iterations);
    s->ws.emplace(std::max(bc.outputs + bc.scratch,
                           bc.outputs + bm.outputs + bm.scratch));
    return s;
  }

  void insert_session(std::shared_ptr<Session> s) {
    Shard& shard = shard_of(s->id);
    std::lock_guard<std::mutex> lk(shard.m);
    if (!shard.sessions.emplace(s->id, std::move(s)).second) {
      throw OnlineContractError("SessionEngine: session id already open");
    }
  }

  // -- retrain lifecycle ----------------------------------------------------

  void schedule_retrain(Session& s, bool initial) {
    auto job = std::make_shared<RetrainJob>();
    job->ticket = std::make_shared<RetrainTicket>();
    job->cost = s.model_cost->clone();
    job->mem = s.model_mem->clone();
    job->x = gather_rows(s.ctx->grid_scaled, s.visited);
    job->yc = s.log_cost;
    job->ym = s.log_mem;
    job->rows = s.visited;
    job->ctx = s.ctx;
    job->initial = initial;
    job->fit_opts = initial ? s.options.al.initial_fit : s.options.al.refit;
    job->extend_opts = s.options.al.refit;
    job->extend_opts.optimize = false;
    job->rng.restore_state(s.rng.save_state());
    job->injector = s.injector;
    job->collector = &s.collector;
    s.ticket = job->ticket;
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
    if (!s.ticket) return;
    const std::shared_ptr<RetrainTicket> t = std::move(s.ticket);
    s.ticket.reset();
    // Work-stealing join: if the worker has not picked the job up yet,
    // run it right here. On a saturated box this degrades gracefully to
    // inline retrains instead of paying a sleep + scheduler handoff per
    // swap; when workers keep up, the steal misses and we wait as before.
    if (const std::shared_ptr<RetrainJob> job = retrain_pool_.steal(t.get())) {
      trace::count("serve.retrain_steals");
      run_retrain_job(*job);
    }
    std::unique_lock<std::mutex> lk(t->m);
    t->cv.wait(lk, [&] { return t->done; });
    if (t->error) std::rethrow_exception(t->error);
    s.model_cost = std::move(t->cost);
    s.model_mem = std::move(t->mem);
    s.rng.restore_state(t->rng_after);
    if (s.injector && t->has_injector) {
      s.injector->restore_counters(t->hits, t->fires);
    }
    ++s.epoch;
    trace::count("serve.retrain_swaps");
  }

  // -- per-session request processing (op_mutex held) -----------------------

  static bool session_done(const Session& s) {
    if (!s.remaining.empty() && s.init_done < s.options.al.n_init) {
      return false;  // init phase still has picks to make
    }
    if (s.exhausted || s.remaining.empty() || s.visited.empty()) return true;
    return s.al_done >= s.options.al.iterations;
  }

  void learn(Session& s, std::size_t row, double cost, double memory,
             double mu_c, double mu_m, bool initial) {
    OnlineRecord record;
    record.grid_row = row;
    record.cost = cost;
    record.memory = memory;
    record.predicted_cost_log10 = mu_c;
    record.predicted_mem_log10 = mu_m;
    record.initial_phase = initial;
    s.cc += cost;
    if (s.track_regret) s.cr += individual_regret(cost, memory, s.limit_mb);
    record.cumulative_cost = s.cc;
    record.cumulative_regret = s.cr;
    s.records.push_back(record);
    s.visited.push_back(row);
    s.log_cost.push_back(std::log10(cost));
    s.log_mem.push_back(std::log10(memory));
  }

  /// The one-time thorough initial fit, scheduled the moment the init
  /// phase can no longer produce another record (quota met or grid
  /// drained) — the same stream position the driver runs it at.
  void maybe_initial_fit(Session& s) {
    if (s.initial_fit_done || s.visited.empty()) return;
    if (s.init_done < s.options.al.n_init && !s.remaining.empty()) return;
    s.initial_fit_done = true;
    schedule_retrain(s, /*initial=*/true);
  }

  void gather_active(Session& s) {
    s.x_active = gather_rows(s.ctx->grid_scaled, s.remaining);
  }

  Suggestion process_suggest(Session& s) {
    join_retrain(s);
    trace::count("serve.requests");
    if (s.pending) {
      throw OnlineContractError(
          "SessionEngine: suggest while a suggestion is outstanding");
    }
    Suggestion out;
    if (s.init_done < s.options.al.n_init && !s.remaining.empty()) {
      // Init phase: uniform pick, drawn BEFORE the experiment runs and
      // erased when its outcome is reported — the driver's exact order.
      const std::size_t local = s.rng.uniform_index(s.remaining.size());
      const std::size_t row = s.remaining[local];
      s.pending = PendingSuggestion{local, row, 0.0, 0.0, /*initial=*/true};
      out.initial_phase = true;
      out.grid_row = row;
      const auto features = s.ctx->grid.row(row);
      out.features.assign(features.begin(), features.end());
      return out;
    }
    if (session_done(s)) {
      out.done = true;
      return out;
    }
    // Panel sweep over the shared-context pool: O(M·n) resume between
    // retrains, bit-identical to a fresh predict() sweep.
    gather_active(s);
    linalg::Workspace::Scope scope(*s.ws);
    const gp::CandidateRef pool{s.x_active, s.remaining};
    // Strategies that never read candidate means (MaxSigma, RandUniform)
    // let the backend skip the O(n·m) mean pass; only the one selected
    // candidate's mean is recovered afterwards, bit-identically.
    const bool with_mean = s.strategy->needs_mean();
    const gp::PosteriorSpans pc =
        s.model_cost->predict_candidates(pool, *s.ws, with_mean);
    const gp::PosteriorSpans pm =
        s.model_mem->predict_candidates(pool, *s.ws, with_mean);
    const CandidateView view{s.x_active, pc.mean, pc.stddev, pm.mean,
                             pm.stddev};
    const std::optional<std::size_t> pick = s.strategy->select(view, s.rng);
    if (!pick) {
      s.exhausted = true;
      out.done = true;
      return out;
    }
    const double mu_c = pc.mean.empty() ? s.model_cost->candidate_mean(*pick)
                                        : pc.mean[*pick];
    const double mu_m = pm.mean.empty() ? s.model_mem->candidate_mean(*pick)
                                        : pm.mean[*pick];
    const std::size_t row = s.remaining[*pick];
    s.pending = PendingSuggestion{*pick, row, mu_c, mu_m, /*initial=*/false};
    out.grid_row = row;
    const auto features = s.ctx->grid.row(row);
    out.features.assign(features.begin(), features.end());
    return out;
  }

  void process_observe(Session& s, double cost, double memory) {
    join_retrain(s);
    trace::count("serve.requests");
    if (!s.pending) {
      throw OnlineContractError(
          "SessionEngine: observe without an outstanding suggestion");
    }
    if (!(cost > 0.0) || !(memory > 0.0)) {
      throw OnlineContractError(
          "SessionEngine: non-positive measurement reported");
    }
    const PendingSuggestion p = *s.pending;
    s.pending.reset();
    s.remaining.erase(s.remaining.begin() +
                      static_cast<std::ptrdiff_t>(p.local));
    if (p.initial) {
      learn(s, p.row, cost, memory, 0.0, 0.0, /*initial=*/true);
      ++s.init_done;
      maybe_initial_fit(s);
      return;
    }
    ++s.al_done;
    // Keep the candidate-panel caches aligned with the shrunken pool.
    s.model_cost->remove_candidate(p.local);
    s.model_mem->remove_candidate(p.local);
    learn(s, p.row, cost, memory, p.mu_c, p.mu_m, /*initial=*/false);
    ++s.since_retrain;
    if (s.since_retrain >= s.options.retrain_stride) {
      // Full (optimizing) refit, off the request path.
      s.since_retrain = 0;
      schedule_retrain(s, /*initial=*/false);
      return;
    }
    // Between retrains: one-row Cholesky extend at fixed hyperparameters,
    // with the panel appended through the after-pool ref.
    const double yc = s.log_cost.back();
    const double ym = s.log_mem.back();
    std::optional<gp::CandidateRef> after;
    if (!s.remaining.empty()) {
      gather_active(s);
      after.emplace(gp::CandidateRef{s.x_active, s.remaining});
    }
    const gp::CandidateRef* after_ptr = after ? &*after : nullptr;
    s.model_cost->add_point(s.ctx->grid_scaled.row(p.row), yc, p.row, s.rng,
                            after_ptr);
    s.model_mem->add_point(s.ctx->grid_scaled.row(p.row), ym, p.row, s.rng,
                           after_ptr);
  }

  void process_observe_failure(Session& s) {
    join_retrain(s);
    trace::count("serve.requests");
    if (!s.pending) {
      throw OnlineContractError(
          "SessionEngine: observe_failure without an outstanding suggestion");
    }
    const PendingSuggestion p = *s.pending;
    s.pending.reset();
    s.remaining.erase(s.remaining.begin() +
                      static_cast<std::ptrdiff_t>(p.local));
    s.skipped.push_back(p.row);
    ++s.giveups;
    trace::count("serve.observe_failures");
    if (p.initial) {
      // Does not count toward n_init — but the grid may have just
      // drained, in which case the initial fit is due now.
      maybe_initial_fit(s);
      return;
    }
    ++s.al_done;  // the iteration is consumed, like a driver give-up
    if (s.initial_fit_done) {
      s.model_cost->remove_candidate(p.local);
      s.model_mem->remove_candidate(p.local);
    }
  }

  QueryResult process_query(Session& s, const linalg::Matrix& x) {
    trace::count("serve.requests");
    // Queries deliberately do NOT join an in-flight retrain: they are
    // served on the epoch current when they run (the old posterior), so
    // the read path never blocks on a background rebuild. The one
    // exception is a query racing the session's FIRST fit, which has no
    // old posterior to serve.
    if (!s.model_cost->fitted()) join_retrain(s);
    if (!s.model_cost->fitted()) {
      throw OnlineContractError(
          "SessionEngine: query before the session learned anything");
    }
    const linalg::Matrix xs = s.ctx->scaler.transform(x);
    QueryResult out;
    out.cost = s.model_cost->predict(xs);
    out.memory = s.model_mem->predict(xs);
    return out;
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
      trace::ScopedCollector tc(s.collector);
      std::optional<faults::ScopedFaultInjector> fi;
      if (s.injector) fi.emplace(*s.injector);
      for (Request& r : batch.requests) {
        try {
          process_request(s, r);
        } catch (...) {
          errors[i] = std::current_exception();
          break;  // this session's batch is poisoned; neighbors continue
        }
      }
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
    trace::ScopedCollector tc(s->collector);
    std::optional<faults::ScopedFaultInjector> fi;
    if (s->injector) fi.emplace(*s->injector);
    return fn(*s);
  }

  // -- persistence ----------------------------------------------------------

  OnlineCheckpoint snapshot(Session& s) {
    if (s.pending) {
      throw OnlineContractError(
          "SessionEngine: checkpoint with a suggestion outstanding");
    }
    join_retrain(s);  // fold the in-flight posterior in first
    OnlineCheckpoint snap;
    snap.fingerprint = s.fingerprint;
    snap.al_iterations_done = s.al_done;
    snap.visited.assign(s.visited.begin(), s.visited.end());
    snap.skipped.assign(s.skipped.begin(), s.skipped.end());
    snap.log_cost = s.log_cost;
    snap.log_mem = s.log_mem;
    snap.theta_cost = s.model_cost->log_params();
    snap.theta_mem = s.model_mem->log_params();
    snap.backend_state_cost = s.model_cost->save_state();
    snap.backend_state_mem = s.model_mem->save_state();
    snap.rng = s.rng.save_state();
    snap.cc = s.cc;
    snap.cr = s.cr;
    snap.oracle_giveups = s.giveups;
    snap.exhausted_safe_candidates = s.exhausted;
    if (s.injector) {
      const auto hits = s.injector->hit_counters();
      const auto fires = s.injector->fire_counters();
      std::copy(hits.begin(), hits.end(), snap.fault_hits.begin());
      std::copy(fires.begin(), fires.end(), snap.fault_fires.begin());
    }
    snap.records = s.records;
    return snap;
  }

  void save(Session& s) {
    if (s.options.checkpoint.empty()) {
      throw OnlineContractError(
          "SessionEngine: session has no checkpoint path");
    }
    trace::count("serve.checkpoints");
    save_online_checkpoint(snapshot(s), s.options.checkpoint,
                           options_.checkpoint_retain);
  }

  void restore(Session& s) {
    if (s.options.checkpoint.empty()) {
      throw OnlineContractError(
          "SessionEngine: restore_session requires a checkpoint path");
    }
    const std::optional<OnlineCheckpoint> resumed = load_online_checkpoint(
        s.options.checkpoint, options_.checkpoint_retain);
    if (!resumed) {
      throw std::runtime_error("SessionEngine: no checkpoint at " +
                               s.options.checkpoint.string());
    }
    if (resumed->fingerprint != s.fingerprint) {
      throw std::runtime_error(
          "SessionEngine: checkpoint at " + s.options.checkpoint.string() +
          " was written by an incompatible configuration (fingerprint "
          "mismatch); refusing to restore");
    }
    trace::count("serve.sessions_restored");

    s.visited.assign(resumed->visited.begin(), resumed->visited.end());
    s.skipped.assign(resumed->skipped.begin(), resumed->skipped.end());
    s.log_cost = resumed->log_cost;
    s.log_mem = resumed->log_mem;
    s.cc = resumed->cc;
    s.cr = resumed->cr;
    s.al_done = resumed->al_iterations_done;
    s.records = resumed->records;
    s.giveups = resumed->oracle_giveups;
    s.exhausted = resumed->exhausted_safe_candidates;
    s.init_done = 0;
    for (const OnlineRecord& record : s.records) {
      if (record.initial_phase) ++s.init_done;
    }
    // Remaining = grid order minus visited/skipped, like the driver.
    std::vector<char> gone(s.ctx->grid.rows(), 0);
    for (const std::size_t row : s.visited) gone[row] = 1;
    for (const std::size_t row : s.skipped) gone[row] = 1;
    s.remaining.clear();
    for (std::size_t i = 0; i < s.ctx->grid.rows(); ++i) {
      if (gone[i] == 0) s.remaining.push_back(i);
    }

    // Rebuild both surrogates AT the saved hyperparameters — rng-free
    // (optimize off); injector counters are restored right after, so any
    // fault-site consultations the rebuild makes are discarded. Mirrors
    // OnlineAlDriver's resume block line for line.
    gp::GprOptions rebuild = s.options.al.refit;
    rebuild.optimize = false;
    s.model_cost->set_fit_options(rebuild);
    s.model_mem->set_fit_options(rebuild);
    if (!resumed->backend_state_cost.empty()) {
      s.model_cost->restore_state(resumed->backend_state_cost);
    }
    if (!resumed->backend_state_mem.empty()) {
      s.model_mem->restore_state(resumed->backend_state_mem);
    }
    s.model_cost->set_log_params(resumed->theta_cost);
    s.model_mem->set_log_params(resumed->theta_mem);
    if (!s.visited.empty()) {
      const linalg::Matrix x = gather_rows(s.ctx->grid_scaled, s.visited);
      s.model_cost->fit(x, s.log_cost, s.rng, s.ctx->base(), s.visited);
      s.model_mem->fit(x, s.log_mem, s.rng, s.ctx->base(), s.visited);
    }
    s.rng.restore_state(resumed->rng);
    if (s.injector) {
      s.injector->restore_counters(resumed->fault_hits, resumed->fault_fires);
    }
    if (s.init_done >= s.options.al.n_init && !s.visited.empty()) {
      // The thorough initial fit already happened (its result travels in
      // theta). Between full retrains the request path only extends at
      // fixed theta, so the models keep the non-optimizing `rebuild`
      // options already set above; the next scheduled retrain job sets
      // the real refit effort itself.
      s.initial_fit_done = true;
      // Re-derive the stride phase so restoring with the same stride
      // keeps the retrain schedule — and the trajectory — byte-identical
      // to the uninterrupted session: full refits land every stride-th
      // successful AL observation, so the phase is the AL success count
      // modulo the stride.
      s.since_retrain = (s.records.size() - s.init_done) %
                        s.options.retrain_stride;
    } else {
      // Init phase still open; the one-time fit runs when it closes —
      // possibly right now, if the checkpoint drained the grid mid-init.
      maybe_initial_fit(s);
    }
  }

  ServeOptions options_;
  std::vector<Shard> shards_;
  std::mutex drain_mutex_;
  std::mutex contexts_mutex_;
  std::unordered_map<std::string, std::weak_ptr<const GridContext>> contexts_;
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
  std::shared_ptr<Session> s =
      impl_->make_session(id, std::move(grid), strategy, std::move(options));
  {
    trace::ScopedCollector tc(s->collector);
    std::optional<faults::ScopedFaultInjector> fi;
    if (s->injector) fi.emplace(*s->injector);
    impl_->restore(*s);
  }
  impl_->insert_session(std::move(s));
}

void SessionEngine::checkpoint_session(SessionId id) {
  impl_->with_session(id, [&](Session& s) { impl_->save(s); });
}

void SessionEngine::evict_session(SessionId id) {
  impl_->with_session(id, [&](Session& s) { impl_->save(s); });
  const std::shared_ptr<Session> s = impl_->take_session(id);
  std::lock_guard<std::mutex> lk(s->op_mutex);  // let in-flight work land
  trace::count("serve.evictions");
}

void SessionEngine::close_session(SessionId id) {
  const std::shared_ptr<Session> s = impl_->take_session(id);
  std::lock_guard<std::mutex> lk(s->op_mutex);
  trace::ScopedCollector tc(s->collector);
  impl_->join_retrain(*s);  // the job writes into this session; wait it out
}

OnlineResult SessionEngine::finish_session(SessionId id) {
  const std::shared_ptr<Session> s = impl_->take_session(id);
  std::lock_guard<std::mutex> lk(s->op_mutex);
  trace::ScopedCollector tc(s->collector);
  std::optional<faults::ScopedFaultInjector> fi;
  if (s->injector) fi.emplace(*s->injector);
  impl_->join_retrain(*s);
  OnlineResult result;
  result.records = std::move(s->records);
  result.exhausted_safe_candidates = s->exhausted;
  result.oracle_giveups = s->giveups;
  result.cost_model = std::move(s->model_cost);
  result.memory_model = std::move(s->model_mem);
  return result;
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
  SessionStatus st;
  st.records = s->records.size();
  st.init_done = s->init_done;
  st.al_done = s->al_done;
  st.remaining = s->remaining.size();
  st.oracle_giveups = s->giveups;
  st.suggestion_pending = s->pending.has_value();
  st.done = Impl::session_done(*s) && !s->pending;
  st.exhausted_safe_candidates = s->exhausted;
  st.epoch = s->epoch;
  if (const auto* res =
          dynamic_cast<const gp::ResilientBackend*>(s->model_cost.get())) {
    st.cost_health = res->health();
    st.cost_active = res->active_kind();
  } else {
    st.cost_active = s->model_cost->kind();
  }
  if (const auto* res =
          dynamic_cast<const gp::ResilientBackend*>(s->model_mem.get())) {
    st.mem_health = res->health();
    st.mem_active = res->active_kind();
  } else {
    st.mem_active = s->model_mem->kind();
  }
  return st;
}

trace::TraceReport SessionEngine::session_trace(SessionId id) const {
  const std::shared_ptr<Session> s = impl_->find_session(id);
  std::lock_guard<std::mutex> lk(s->op_mutex);
  return s->collector.report();
}

}  // namespace alamr::core
