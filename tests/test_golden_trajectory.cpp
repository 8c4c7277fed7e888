// Golden-trajectory regression test: a fixed-seed 50-iteration RGMA run,
// serialized with trajectory_to_csv, compared byte-for-byte against a
// checked-in reference. This locks in the repo's determinism contract —
// the trajectory must be bit-identical whatever the thread count. The
// golden file is the spec of the one posterior path (incremental refits,
// kept cross matrix, candidate panel); the GPR/backend-level bitwise
// references live in test_gp_panel.cpp and test_backend_reference.cpp.
//
// To regenerate after an INTENTIONAL numerics change:
//   ALAMR_REGEN_GOLDEN=1 ./build/tests/tests_golden
// and commit the updated tests/golden/rgma_seed2024.csv with an
// explanation of why the trajectory moved.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "alamr/core/export.hpp"
#include "alamr/core/parallel.hpp"
#include "alamr/core/simulator.hpp"
#include "alamr/core/strategies.hpp"
#include "alamr/linalg/simd.hpp"
#include "synthetic_dataset.hpp"

namespace {

using namespace alamr;
using namespace alamr::core;

constexpr std::size_t kIterations = 50;

const std::filesystem::path kGoldenPath =
    std::filesystem::path(ALAMR_GOLDEN_DIR) / "rgma_seed2024.csv";

/// The one configuration the golden file pins down. Everything is seeded;
/// nothing reads the environment.
AlOptions golden_options() {
  AlOptions options;
  options.n_test = 60;
  options.n_init = 25;
  options.max_iterations = kIterations;
  options.initial_fit.restarts = 1;
  options.initial_fit.max_opt_iterations = 40;
  options.refit.restarts = 0;
  options.refit.max_opt_iterations = 4;
  return options;
}

std::string golden_csv(std::size_t threads) {
  const data::Dataset dataset = alamr::testing::synthetic_amr_dataset(320, 2024);
  const AlOptions options = golden_options();
  const AlSimulator simulator(dataset, options);
  const Rgma rgma(simulator.memory_limit_log10());

  stats::Rng partition_rng(11);
  const data::Partition partition = data::make_partition(
      dataset.size(), options.n_test, options.n_init, partition_rng);

  set_global_parallel_threads(threads);
  stats::Rng rng(2024);
  const TrajectoryResult result =
      simulator.run_with_partition(rgma, partition, rng);
  set_global_parallel_threads(0);  // restore the configured default

  EXPECT_EQ(result.iterations.size(), kIterations)
      << "stop_reason=" << static_cast<int>(result.stop_reason);
  return trajectory_to_csv(result);
}

std::string read_golden_file() {
  std::ifstream in(kGoldenPath, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden file " << kGoldenPath;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool regenerating() {
  const char* env = std::getenv("ALAMR_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

namespace simd = alamr::linalg::simd;

// The vector dispatch levels (avx2/avx512) reroute the linalg reductions
// through FMA kernels with a different reduction tree — deliberately NOT
// bit-identical (simd.hpp numerics contract). The byte-for-byte goldens
// therefore pin the scalar level for the duration of the run — whatever
// level the process started at (so "ALAMR_SIMD_LEVEL=avx512 ctest" still
// passes them) — and the tolerance comparisons below run at the ambient
// level to carry the vector kernels' regression load.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level) : saved_(simd::active_level()) {
    EXPECT_TRUE(simd::set_level(level));
  }
  ~ScopedSimdLevel() { simd::set_level(saved_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  simd::Level saved_;
};

#define ALAMR_PIN_SCALAR_FOR_BYTE_GOLDEN() \
  const ScopedSimdLevel pin_scalar_level(simd::Level::kScalar)

TEST(GoldenTrajectory, SingleThreadIncrementalMatchesGolden) {
  ALAMR_PIN_SCALAR_FOR_BYTE_GOLDEN();
  const std::string csv = golden_csv(1);
  if (regenerating()) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << kGoldenPath;
    out << csv;
    GTEST_SKIP() << "regenerated " << kGoldenPath;
  }
  EXPECT_EQ(csv, read_golden_file());
}

TEST(GoldenTrajectory, FourThreadsMatchesGolden) {
  ALAMR_PIN_SCALAR_FOR_BYTE_GOLDEN();
  if (regenerating()) GTEST_SKIP();
  EXPECT_EQ(golden_csv(4), read_golden_file());
}

// --- Tolerance comparison (carries the goldens at the vector levels) ---
//
// The vector kernels reassociate reductions and fuse multiply-adds, so
// the trajectory's floating-point columns may drift while every discrete
// decision (which row was acquired, in which order) must still match.
// Each kernel is within rel 1e-12 of the scalar reference
// (test_linalg_simd.cpp), but a trajectory compounds that through ~50
// refit/factor/solve chains: the worst observed whole-trajectory cell
// drift on this golden is 1.7e-7 relative (a small-magnitude RMSE cell
// at iteration 50). kVectorTrajectoryTol = 1e-6 gives ~6x headroom over
// that measurement while still failing loudly on any real numerical
// regression (which shows up orders of magnitude above rounding drift).
// Non-numeric cells — headers, row indices, censor kinds — must be
// identical. At the scalar level the tolerance is 1e-12 and every cell
// compares bit-equal anyway, which validates the comparator itself.

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

bool parse_double(const std::string& token, double& value) {
  if (token.empty()) return false;
  char* end = nullptr;
  value = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

void expect_csv_near(const std::string& got, const std::string& expect,
                     double rel_tol) {
  const auto got_lines = split(got, '\n');
  const auto expect_lines = split(expect, '\n');
  ASSERT_EQ(got_lines.size(), expect_lines.size()) << "row count moved";
  for (std::size_t line = 0; line < got_lines.size(); ++line) {
    const auto got_cells = split(got_lines[line], ',');
    const auto expect_cells = split(expect_lines[line], ',');
    ASSERT_EQ(got_cells.size(), expect_cells.size()) << "line " << line;
    for (std::size_t col = 0; col < got_cells.size(); ++col) {
      double g = 0.0;
      double e = 0.0;
      if (parse_double(got_cells[col], g) &&
          parse_double(expect_cells[col], e)) {
        if (g == e) continue;  // covers exact integers and -0.0 == 0.0
        const double scale = std::max(std::abs(e), std::abs(g));
        EXPECT_LE(std::abs(g - e), rel_tol * scale)
            << "line " << line << " col " << col << ": " << got_cells[col]
            << " vs " << expect_cells[col];
      } else {
        EXPECT_EQ(got_cells[col], expect_cells[col])
            << "line " << line << " col " << col;
      }
    }
  }
}

constexpr double kVectorTrajectoryTol = 1e-6;

double trajectory_tolerance_for(simd::Level level) {
  return level == simd::Level::kScalar ? 1e-12 : kVectorTrajectoryTol;
}

TEST(GoldenTrajectoryTolerance, SingleThreadIncrementalWithinTolerance) {
  if (regenerating()) GTEST_SKIP();
  expect_csv_near(golden_csv(1), read_golden_file(),
                  trajectory_tolerance_for(simd::active_level()));
}

TEST(GoldenTrajectoryTolerance, FourThreadsWithinTolerance) {
  if (regenerating()) GTEST_SKIP();
  expect_csv_near(golden_csv(4), read_golden_file(),
                  trajectory_tolerance_for(simd::active_level()));
}

// Every dispatch level this host supports reproduces the golden within
// its tolerance gate, in one process — the in-binary counterpart of the
// per-level ALAMR_SIMD_LEVEL legs in scripts/check.sh.
TEST(GoldenTrajectoryTolerance, EveryDispatchLevelWithinTolerance) {
  if (regenerating()) GTEST_SKIP();
  const std::string golden = read_golden_file();
  const simd::Level best = simd::max_supported_level();
  for (int l = 0; l <= static_cast<int>(best); ++l) {
    const simd::Level level = static_cast<simd::Level>(l);
    const ScopedSimdLevel pin(level);
    SCOPED_TRACE(std::string("level=") + simd::to_string(level));
    expect_csv_near(golden_csv(1), golden,
                    trajectory_tolerance_for(level));
  }
}

}  // namespace
