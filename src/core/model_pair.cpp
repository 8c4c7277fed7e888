#include "model_pair.hpp"

#include <algorithm>

namespace alamr::core {

ModelPair::ModelPair(const gp::BackendOptions& backend,
                     const resilience::Options& resilience,
                     const gp::ResilientBackend::KernelFactory& kernel_factory,
                     const gp::GprOptions& fit) {
  for (auto& head : heads_) {
    head = gp::make_resilient_backend(backend, resilience, kernel_factory, fit);
  }
}

void ModelPair::record_external_event(resilience::Event event) {
  for (auto& head : heads_) {
    if (auto* resilient = dynamic_cast<gp::ResilientBackend*>(head.get())) {
      resilient->record_external_event(event);
    }
  }
}

ModelPairState ModelPair::save(const stats::Rng& rng,
                               const faults::FaultInjector* injector) const {
  ModelPairState s;
  s.theta_cost = heads_[0]->log_params();
  s.theta_mem = heads_[1]->log_params();
  s.backend_state_cost = heads_[0]->save_state();
  s.backend_state_mem = heads_[1]->save_state();
  s.rng = rng.save_state();
  if (injector != nullptr) {
    std::ranges::copy(injector->hit_counters(), s.fault_hits.begin());
    std::ranges::copy(injector->fire_counters(), s.fault_fires.begin());
  }
  return s;
}

void ModelPair::rebuild(const ModelPairState& saved,
                        const gp::GprOptions& refit, const linalg::Matrix& x,
                        std::span<const double> y_cost,
                        std::span<const double> y_mem, stats::Rng& rng,
                        const gp::DistanceBase* base,
                        std::span<const std::size_t> rows,
                        faults::FaultInjector* injector) {
  gp::GprOptions rebuild = refit;
  rebuild.optimize = false;
  set_fit_options(rebuild);
  const auto restore = [](gp::PosteriorBackend& head, const std::string& state,
                          std::span<const double> theta) {
    if (!state.empty()) head.restore_state(state);
    head.set_log_params(theta);
  };
  restore(*heads_[0], saved.backend_state_cost, saved.theta_cost);
  restore(*heads_[1], saved.backend_state_mem, saved.theta_mem);
  if (!rows.empty()) fit(x, y_cost, y_mem, rng, base, rows);
  rng.restore_state(saved.rng);
  if (injector != nullptr) {
    injector->restore_counters(saved.fault_hits, saved.fault_fires);
  }
}

}  // namespace alamr::core
