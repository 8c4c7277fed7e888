// Self-test of the benchmark's output checks: a clean trajectory and a
// clean tenant pass, and each tampered copy is counted as failed.
//
//   python3 perfbench/run.py --self-test

#include <cstdio>
#include <functional>
#include <limits>
#include <string>

#include "alamr/core/batch.hpp"
#include "checks.hpp"
#include "synthetic_dataset.hpp"

namespace {

using namespace alamr;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void trajectory_cases() {
  const data::Dataset dataset = testing::synthetic_amr_dataset(260, 11);
  core::AlOptions options;
  options.n_test = 60;
  options.n_init = 10;
  options.max_iterations = 12;
  options.initial_fit.restarts = 0;
  options.initial_fit.max_opt_iterations = 10;
  options.refit.max_opt_iterations = 2;
  const core::AlSimulator sim(dataset, options);
  core::BatchOptions batch;
  batch.trajectories = 1;
  batch.threads = 1;
  const core::TrajectoryResult clean =
      core::run_batch(sim, core::MaxSigma{}, batch).front();
  expect(perfbench::check_trajectory(clean, dataset, 12).empty(), "clean trajectory passes");

  const auto tampered = [&](const char* what,
                            const std::function<void(core::TrajectoryResult&)>& edit) {
    core::TrajectoryResult t = clean;
    edit(t);
    const perfbench::Verdict v = perfbench::check_trajectory(t, dataset, 12);
    expect(!v.empty(), std::string("tampered trajectory fails: ") + what + " -> " + v);
  };
  tampered("CC off by one row", [](core::TrajectoryResult& t) {
    t.iterations[5].cumulative_cost += 1e-3;
  });
  tampered("CR not Eq. 11", [](core::TrajectoryResult& t) {
    for (auto& r : t.iterations) r.cumulative_regret += 1.0;
  });
  tampered("row selected twice", [](core::TrajectoryResult& t) {
    t.iterations[3].dataset_row = t.iterations[2].dataset_row;
  });
  tampered("row from Test", [](core::TrajectoryResult& t) {
    t.iterations[0].dataset_row = t.partition.test.front();
  });
  tampered("RMSE not finite", [](core::TrajectoryResult& t) {
    t.iterations.back().rmse_cost = std::numeric_limits<double>::quiet_NaN();
  });
  tampered("too many iterations", [](core::TrajectoryResult& t) {
    t.iterations.push_back(t.iterations.back());
  });
}

void tenant_cases() {
  // A tenant that observed rows 4, 9 (init) then 1, 7, 3, 8 (AL) at
  // stride 2: the initial fit plus two retrains.
  const auto ledger = [] {
    perfbench::TenantLedger l(10, 2, 2, /*memory_limit_mb=*/5.0);
    const std::size_t rows[] = {4, 9, 1, 7, 3, 8};
    for (const std::size_t row : rows) {
      if (!l.on_suggestion(row).empty()) std::printf("unexpected suggestion failure\n");
      l.on_observe(row, 0.5 + row, row >= 7 ? 6.0 : 1.0);
    }
    return l;
  };
  core::OnlineResult clean;
  double cc = 0.0;
  double cr = 0.0;
  for (const std::size_t row : {4, 9, 1, 7, 3, 8}) {
    core::OnlineRecord r;
    r.grid_row = row;
    cc += 0.5 + row;
    cr += row >= 7 ? 0.5 + row : 0.0;
    r.cumulative_cost = cc;
    r.cumulative_regret = cr;
    clean.records.push_back(r);
  }
  expect(ledger().on_finish(clean, 3).empty(), "clean tenant passes");
  expect(!ledger().on_finish(clean, 2).empty(), "tampered tenant fails: epoch behind the stride");

  core::OnlineResult short_result;
  short_result.records.assign(clean.records.begin(), clean.records.end() - 1);
  expect(!ledger().on_finish(short_result, 3).empty(), "tampered tenant fails: record count");

  core::OnlineResult bad_cost;
  bad_cost.records = clean.records;
  bad_cost.records.back().cumulative_cost *= 1.01;
  expect(!ledger().on_finish(bad_cost, 3).empty(), "tampered tenant fails: CC");

  perfbench::TenantLedger l = ledger();
  expect(!l.on_suggestion(9).empty(), "tampered tenant fails: suggestion of a visited row");
  expect(!l.on_suggestion(10).empty(), "tampered tenant fails: suggestion outside the grid");
}

}  // namespace

int main() {
  trajectory_cases();
  tenant_cases();
  std::printf("%s\n", failures == 0 ? "all checks behave" : "SELF-TEST FAILED");
  return failures == 0 ? 0 : 1;
}
