// Checkpoint codecs against input from disk (core/checkpoint.hpp,
// gp/backend.hpp, DESIGN.md §14):
//
//   - byte pins: a fixed TrajectoryCheckpoint and a fixed OnlineCheckpoint
//     serialize to literals captured before the model fields moved into
//     the shared ModelPairState block, and those literals still parse;
//     a value of the wrong JSON type or past 2^64 does not;
//   - the local-experts centroid reader's malformed-shape cases;
//   - a seeded mutation fuzz of six readers (both checkpoint payloads,
//     the local-experts and resilient backend states, the fault-plan
//     spec and the dataset CSV): every mutated input either round-trips
//     or throws the reader's documented exception type.

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "alamr/core/checkpoint.hpp"
#include "alamr/core/faults.hpp"
#include "alamr/data/csv.hpp"
#include "alamr/gp/backend.hpp"
#include "alamr/gp/kernels.hpp"
#include "alamr/stats/rng.hpp"

namespace {

using namespace alamr;
using namespace alamr::core;

// ---- byte pins ----------------------------------------------------------

TrajectoryCheckpoint fixed_trajectory() {
  TrajectoryCheckpoint t;
  t.fingerprint = "fp-traj|plan=seed=3;acquire.oom:p=0.5";
  t.passes = 2;
  t.trained = 1;
  t.learned = {4, 7, 9};
  t.active = {1, 2};
  t.c_learned = {0.5, -1.25, 2.0};
  t.m_learned = {1.0, 1.5, 0.75};
  t.models.theta_cost = {0.1, -0.2, 0.3};
  t.models.theta_mem = {1.5};
  t.models.backend_state_cost =
      "centroids v1;1x2;0x3ff0000000000000,0x4000000000000000";
  t.models.backend_state_mem = "resil \"q\"\\\n\t\r";
  stats::Rng rng(77);
  (void)rng.normal();  // leaves a cached normal in the state
  t.models.rng = rng.save_state();
  t.models.fault_hits[0] = 11;
  t.models.fault_hits[2] = 4;
  t.models.fault_fires[0] = 3;
  t.cc = 12.5;
  t.cr = 0.75;
  t.last_rmse_cost = 0.125;
  t.last_rmse_mem = 0.25;
  t.last_rmse_weighted = 0.375;
  t.last_record_evaluated = false;
  t.initial_rmse_cost = 1.5;
  t.initial_rmse_mem = 2.5;
  t.stable_streak = 1;
  t.previous_cost_mu_log = {0.01, -0.02};
  t.censored_count = 1;
  t.censored_cost = 3.5;
  for (std::size_t i = 0; i < 2; ++i) {
    IterationRecord r;
    const double k = static_cast<double>(i);
    r.iteration = i;
    r.dataset_row = 9 - i;
    r.actual_cost = 1.25 + k;
    r.actual_memory = 100.0 * (k + 1.0);
    r.predicted_cost_log10 = 0.09;
    r.predicted_cost_sigma = 0.5;
    r.predicted_mem_log10 = 2.0;
    r.predicted_mem_sigma = 0.25;
    r.rmse_cost = 0.125;
    r.rmse_mem = 0.25;
    r.rmse_cost_weighted = 0.375;
    r.cumulative_cost = 1.25 * (k + 1.0);
    r.cumulative_regret = 0.5 * k;
    r.candidates_before = 3 - i;
    r.censor = i == 0 ? CensorKind::kNone : CensorKind::kOom;
    t.iterations.push_back(r);
  }
  return t;
}

OnlineCheckpoint fixed_online() {
  OnlineCheckpoint o;
  o.fingerprint = "fp-online";
  o.al_iterations_done = 4;
  o.visited = {9, 2, 5};
  o.skipped = {7};
  o.log_cost = {-1.5, 0.25, 3.0};
  o.log_mem = {0.5, 1.5, 2.5};
  o.models.theta_cost = {0.1, -0.2, 0.3};
  o.models.theta_mem = {1.0};
  o.models.backend_state_cost = "resil v1;opaque \"quoted\" state";
  o.models.rng = stats::Rng(78).save_state();
  o.models.fault_hits[0] = 11;
  o.models.fault_hits[5] = 2;
  o.models.fault_fires[0] = 3;
  o.cc = 12.5;
  o.cr = 0.75;
  o.oracle_giveups = 2;
  o.exhausted_safe_candidates = true;
  for (std::size_t i = 0; i < 2; ++i) {
    OnlineRecord r;
    const double k = static_cast<double>(i);
    r.grid_row = 9 - i;
    r.cost = 1.25 + k;
    r.memory = 100.0;
    r.predicted_cost_log10 = 0.09;
    r.predicted_mem_log10 = 2.0;
    r.cumulative_cost = 1.25 * (k + 1.0);
    r.initial_phase = i == 0;
    o.records.push_back(r);
  }
  return o;
}

// Written by the codecs before ModelPairState existed.
const char* const kTrajectoryPin =
    R"json({"version":1,)json"
    R"json("fingerprint":"fp-traj|plan=seed=3;acquire.oom:p=0.5","passes":2,)json"
    R"json("trained":1,"learned":[4,7,9],"active":[1,2],)json"
    R"json("c_learned":["0x3fe0000000000000","0xbff4000000000000",)json"
    R"json("0x4000000000000000"],"m_learned":["0x3ff0000000000000",)json"
    R"json("0x3ff8000000000000","0x3fe8000000000000"],)json"
    R"json("theta_cost":["0x3fb999999999999a","0xbfc999999999999a",)json"
    R"json("0x3fd3333333333333"],"theta_mem":["0x3ff8000000000000"],)json"
    R"json("backend_state_cost":"centroids v1;1x2;0x3ff0000000000000,)json"
    R"json(0x4000000000000000","backend_state_mem":"resil \"q\"\\\n\t\r",)json"
    R"json("rng":{"words":[2368031046032999717,1811307805298497850,)json"
    R"json(4320370868304457987,17890938572464845197],)json"
    R"json("cached_normal":"0x3ff7064075dc31c8","has_cached_normal":true},)json"
    R"json("cc":"0x4029000000000000","cr":"0x3fe8000000000000",)json"
    R"json("last_rmse_cost":"0x3fc0000000000000",)json"
    R"json("last_rmse_mem":"0x3fd0000000000000",)json"
    R"json("last_rmse_weighted":"0x3fd8000000000000",)json"
    R"json("last_record_evaluated":false,)json"
    R"json("initial_rmse_cost":"0x3ff8000000000000",)json"
    R"json("initial_rmse_mem":"0x4004000000000000","stable_streak":1,)json"
    R"json("previous_cost_mu_log":["0x3f847ae147ae147b",)json"
    R"json("0xbf947ae147ae147b"],"censored_count":1,)json"
    R"json("censored_cost":"0x400c000000000000","fault_hits":[11,0,4,0,0,0,)json"
    R"json(0],"fault_fires":[3,0,0,0,0,0,0],"iterations":[{"iteration":0,)json"
    R"json("dataset_row":9,"actual_cost":"0x3ff4000000000000",)json"
    R"json("actual_memory":"0x4059000000000000",)json"
    R"json("predicted_cost_log10":"0x3fb70a3d70a3d70a",)json"
    R"json("predicted_cost_sigma":"0x3fe0000000000000",)json"
    R"json("predicted_mem_log10":"0x4000000000000000",)json"
    R"json("predicted_mem_sigma":"0x3fd0000000000000",)json"
    R"json("rmse_cost":"0x3fc0000000000000","rmse_mem":"0x3fd0000000000000",)json"
    R"json("rmse_cost_weighted":"0x3fd8000000000000",)json"
    R"json("cumulative_cost":"0x3ff4000000000000",)json"
    R"json("cumulative_regret":"0x0000000000000000","candidates_before":3,)json"
    R"json("censor":0},{"iteration":1,"dataset_row":8,)json"
    R"json("actual_cost":"0x4002000000000000",)json"
    R"json("actual_memory":"0x4069000000000000",)json"
    R"json("predicted_cost_log10":"0x3fb70a3d70a3d70a",)json"
    R"json("predicted_cost_sigma":"0x3fe0000000000000",)json"
    R"json("predicted_mem_log10":"0x4000000000000000",)json"
    R"json("predicted_mem_sigma":"0x3fd0000000000000",)json"
    R"json("rmse_cost":"0x3fc0000000000000","rmse_mem":"0x3fd0000000000000",)json"
    R"json("rmse_cost_weighted":"0x3fd8000000000000",)json"
    R"json("cumulative_cost":"0x4004000000000000",)json"
    R"json("cumulative_regret":"0x3fe0000000000000","candidates_before":2,)json"
    R"json("censor":2}]})json";

const char* const kOnlinePin =
    R"json({"version":1,"kind":"online","fingerprint":"fp-online",)json"
    R"json("al_iterations_done":4,"visited":[9,2,5],"skipped":[7],)json"
    R"json("log_cost":["0xbff8000000000000","0x3fd0000000000000",)json"
    R"json("0x4008000000000000"],"log_mem":["0x3fe0000000000000",)json"
    R"json("0x3ff8000000000000","0x4004000000000000"],)json"
    R"json("theta_cost":["0x3fb999999999999a","0xbfc999999999999a",)json"
    R"json("0x3fd3333333333333"],"theta_mem":["0x3ff0000000000000"],)json"
    R"json("backend_state_cost":"resil v1;opaque \"quoted\" state",)json"
    R"json("backend_state_mem":"","rng":{"words":[6271748679462446236,)json"
    R"json(11295402105309489703,1803572412378200059,11340458070493466757],)json"
    R"json("cached_normal":"0x0000000000000000","has_cached_normal":false},)json"
    R"json("cc":"0x4029000000000000","cr":"0x3fe8000000000000",)json"
    R"json("oracle_giveups":2,"exhausted_safe_candidates":true,)json"
    R"json("fault_hits":[11,0,0,0,0,2,0],"fault_fires":[3,0,0,0,0,0,0],)json"
    R"json("records":[{"grid_row":9,"cost":"0x3ff4000000000000",)json"
    R"json("memory":"0x4059000000000000",)json"
    R"json("predicted_cost_log10":"0x3fb70a3d70a3d70a",)json"
    R"json("predicted_mem_log10":"0x4000000000000000",)json"
    R"json("cumulative_cost":"0x3ff4000000000000",)json"
    R"json("cumulative_regret":"0x0000000000000000","initial_phase":true},)json"
    R"json({"grid_row":8,"cost":"0x4002000000000000",)json"
    R"json("memory":"0x4059000000000000",)json"
    R"json("predicted_cost_log10":"0x3fb70a3d70a3d70a",)json"
    R"json("predicted_mem_log10":"0x4000000000000000",)json"
    R"json("cumulative_cost":"0x4004000000000000",)json"
    R"json("cumulative_regret":"0x0000000000000000","initial_phase":false}]})json";

/// The hex digits of every "0x..." double image in upper case.
std::string upper_hex(std::string text) {
  for (std::size_t at = text.find("\"0x"); at != std::string::npos;
       at = text.find("\"0x", at + 1)) {
    for (std::size_t i = at + 3; i < at + 19 && i < text.size(); ++i) {
      text[i] = static_cast<char>(
          std::toupper(static_cast<unsigned char>(text[i])));
    }
  }
  return text;
}

TEST(CheckpointBytes, TrajectoryPayloadMatchesPin) {
  EXPECT_EQ(checkpoint_to_json(fixed_trajectory()), kTrajectoryPin);
}

TEST(CheckpointBytes, OnlinePayloadMatchesPin) {
  EXPECT_EQ(online_checkpoint_to_json(fixed_online()), kOnlinePin);
}

TEST(CheckpointBytes, PinnedPayloadsParseInEitherHexCase) {
  for (const std::string& text :
       {std::string(kTrajectoryPin), upper_hex(kTrajectoryPin)}) {
    EXPECT_EQ(checkpoint_to_json(checkpoint_from_json(text)), kTrajectoryPin);
  }
  for (const std::string& text :
       {std::string(kOnlinePin), upper_hex(kOnlinePin)}) {
    EXPECT_EQ(online_checkpoint_to_json(online_checkpoint_from_json(text)),
              kOnlinePin);
  }
}

/// `text` with its first `from` replaced by `to`.
std::string replaced(std::string text, std::string_view from,
                     std::string_view to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

TEST(CheckpointBytes, WrongTypeOrOverflowThrows) {
  const std::string past_u64 = "18446744073709551618";  // 2^64 + 2
  const std::string traj = kTrajectoryPin;
  for (const std::string& text :
       {replaced(traj, "\"passes\":2", "\"passes\":\"2\""),
        replaced(traj, "\"passes\":2", "\"passes\":" + past_u64),
        replaced(traj, "\"last_record_evaluated\":false",
                 "\"last_record_evaluated\":1"),
        replaced(traj, "\"learned\":[4,", "\"learned\":[\"4\","),
        replaced(traj, "\"fingerprint\":\"fp-traj", "\"fingerprint\":7,\"x\":\""),
        replaced(traj, "\"cc\":\"0x4029000000000000\"", "\"cc\":12")}) {
    SCOPED_TRACE(text);
    EXPECT_THROW(checkpoint_from_json(text), std::runtime_error);
  }
  const std::string online = kOnlinePin;
  for (const std::string& text :
       {replaced(online, "\"oracle_giveups\":2", "\"oracle_giveups\":\"2\""),
        replaced(online, "\"oracle_giveups\":2",
                 "\"oracle_giveups\":" + past_u64),
        replaced(online, "\"exhausted_safe_candidates\":true",
                 "\"exhausted_safe_candidates\":1"),
        replaced(online, "\"words\":[6271748679462446236,",
                 "\"words\":[" + past_u64 + ",")}) {
    SCOPED_TRACE(text);
    EXPECT_THROW(online_checkpoint_from_json(text), std::runtime_error);
  }
  // The record list as another type, in an otherwise well-formed payload.
  const std::string iterations = "\"iterations\":";
  const std::string records = "\"records\":";
  for (const char* other : {"3", "{}", "\"[]\"", "true"}) {
    SCOPED_TRACE(other);
    EXPECT_THROW(checkpoint_from_json(traj.substr(0, traj.find(iterations)) +
                                      iterations + other + "}"),
                 std::runtime_error);
    EXPECT_THROW(online_checkpoint_from_json(
                     online.substr(0, online.find(records)) + records + other +
                     "}"),
                 std::runtime_error);
  }
}

// ---- local-experts centroid state -----------------------------------------

std::unique_ptr<gp::PosteriorBackend> local_experts(std::size_t experts = 2) {
  gp::BackendOptions options;
  options.kind = gp::BackendKind::kLocalExperts;
  options.experts = experts;
  options.min_expert_size = 2;
  gp::GprOptions fit;
  fit.restarts = 0;
  fit.max_opt_iterations = 5;
  return gp::make_backend(options, gp::make_paper_kernel(), fit);
}

linalg::Matrix grid(std::size_t rows, std::size_t cols) {
  linalg::Matrix x(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t c = 0; c < cols; ++c) {
      x(i, c) = static_cast<double>((i * 7 + c * 3) % 11) / 11.0;
    }
  }
  return x;
}

TEST(LocalExpertsState, NonNumericShapeThrowsRuntimeError) {
  for (const char* state :
       {"centroids v1;x3;", "centroids v1;2x;", "centroids v1;2xy;",
        "centroids v1;+2x1;0x3ff0000000000000,0x3ff0000000000000",
        "centroids v1;2 x1;", "centroids v1;2x1", "centroids v2;1x1;"}) {
    SCOPED_TRACE(state);
    EXPECT_THROW(local_experts()->restore_state(state), std::runtime_error);
  }
}

TEST(LocalExpertsState, OverflowingShapeThrowsBeforeAllocating) {
  for (const char* state :
       {"centroids v1;4294967296x4294967296;0x3ff0000000000000",
        "centroids v1;99999999999999999999999x1;0x3ff0000000000000",
        "centroids v1;1x18446744073709551616;0x3ff0000000000000",
        "centroids v1;3x0;", "centroids v1;0x3;"}) {
    SCOPED_TRACE(state);
    EXPECT_THROW(local_experts()->restore_state(state), std::runtime_error);
  }
}

TEST(LocalExpertsState, CellCountMustMatchTheShape) {
  const std::string one = "0x3ff0000000000000";
  for (const std::string& state :
       {"centroids v1;1x2;" + one,
        "centroids v1;1x2;" + one + "," + one + "," + one,
        "centroids v1;1x2;" + one + ",", std::string("centroids v1;1x1;")}) {
    SCOPED_TRACE(state);
    EXPECT_THROW(local_experts()->restore_state(state), std::runtime_error);
  }
  EXPECT_NO_THROW(
      local_experts()->restore_state("centroids v1;1x2;" + one + "," + one));
}

TEST(LocalExpertsState, DimensionMismatchThrowsAtFirstFit) {
  const linalg::Matrix x = grid(12, 2);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = x(i, 0) - x(i, 1);
  stats::Rng rng(3);

  auto fitted = local_experts();
  fitted->fit(x, y, rng);
  const std::string saved = fitted->save_state();
  auto resumed = local_experts();
  resumed->restore_state(saved);
  EXPECT_NO_THROW(resumed->fit(x, y, rng));
  EXPECT_EQ(resumed->save_state(), saved);

  const std::string one = "0x3ff0000000000000";
  auto wide = local_experts();
  wide->restore_state("centroids v1;2x3;" + one + "," + one + "," + one +
                      "," + one + "," + one + "," + one);
  EXPECT_THROW(wide->fit(x, y, rng), std::runtime_error);
}

// ---- seeded mutation fuzz --------------------------------------------------

constexpr std::size_t kMutations = 2000;

/// The end of the JSON value that starts at `pos`: a string, a bracketed
/// run or a bare token.
std::size_t value_end(const std::string& s, std::size_t pos) {
  std::size_t depth = 0;
  bool in_string = false;
  for (std::size_t i = pos; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return i + 1;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if (c == ']' || c == '}' || c == ',') {
      if (depth == 0) return i;
      if (c != ',' && --depth == 0) return i + 1;
    }
  }
  return s.size();
}

/// Replaces a value after a ':', '[' or ',' with one of another JSON type
/// (string, number, bool, array, object).
void swap_type(std::string& s, stats::Rng& rng) {
  static const std::vector<std::string> kValues = {
      "\"2\"", "\"0x3ff0000000000000\"", "2", "0", "true", "false",
      "[]", "[1]", "{}"};
  const std::size_t at = s.find_first_of(":[,", rng.uniform_index(s.size() + 1));
  if (at == std::string::npos) return;
  const std::size_t end = value_end(s, at + 1);
  const auto kind = [](char c) {
    return c == 't' ? 'f' : (c >= '0' && c <= '9') ? '0' : c;
  };
  const char old_kind = at + 1 < s.size() ? kind(s[at + 1]) : ' ';
  std::string value = kValues[rng.uniform_index(kValues.size())];
  while (kind(value[0]) == old_kind) {
    value = kValues[rng.uniform_index(kValues.size())];
  }
  s.replace(at + 1, end - (at + 1), value);
}

/// Pushes a run of decimal digits past 2^64 - 1.
void overflow_digits(std::string& s, stats::Rng& rng) {
  static const std::vector<std::string> kPast = {
      "18446744073709551616", "18446744073709551618", "99999999999999999999",
      "184467440737095516150"};
  const std::size_t begin =
      s.find_first_of("0123456789", rng.uniform_index(s.size() + 1));
  if (begin == std::string::npos) return;
  const std::size_t end = s.find_first_not_of("0123456789", begin);
  s.replace(begin, (end == std::string::npos ? s.size() : end) - begin,
            kPast[rng.uniform_index(kPast.size())]);
}

/// One to three edits of `seed`: replace, insert, delete a run, truncate,
/// splice a slice of the text elsewhere, write an arbitrary byte, swap a
/// value's JSON type, or push a number past 2^64.
std::string mutate(const std::string& seed, stats::Rng& rng) {
  static constexpr std::string_view kAlphabet =
      "0123456789abcdefABCDEFx,;:|=\"{}[]\\-. vtrn";
  const auto pick = [&] {
    return kAlphabet[rng.uniform_index(kAlphabet.size())];
  };
  std::string s = seed;
  const std::size_t edits = 1 + rng.uniform_index(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = rng.uniform_index(s.size() + 1);
    switch (rng.uniform_index(8)) {
      case 0:
        if (pos < s.size()) s[pos] = pick();
        break;
      case 1:
        s.insert(pos, 1, pick());
        break;
      case 2:
        s.erase(pos, 1 + rng.uniform_index(8));
        break;
      case 3:
        s.resize(pos);
        break;
      case 4: {
        const std::size_t from = rng.uniform_index(s.size() + 1);
        s.insert(pos, s.substr(from, 1 + rng.uniform_index(24)));
        break;
      }
      case 5:
        swap_type(s, rng);
        break;
      case 6:
        overflow_digits(s, rng);
        break;
      default:
        if (pos < s.size()) s[pos] = static_cast<char>(rng.uniform_index(256));
        break;
    }
  }
  return s;
}

/// Feeds kMutations mutations of `seeds` to `round_trip`, which parses its
/// input and writes the parsed state back. An input must either throw
/// `Rejection` or parse to a state whose written form parses back to
/// itself; any other exception fails the test.
template <typename Rejection = std::runtime_error>
void fuzz(const std::vector<std::string>& seeds,
          const std::function<std::string(const std::string&)>& round_trip,
          std::uint64_t seed) {
  for (const std::string& s : seeds) {
    ASSERT_EQ(round_trip(round_trip(s)), round_trip(s)) << s;
  }
  stats::Rng rng(seed);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < kMutations; ++i) {
    const std::string input = mutate(seeds[i % seeds.size()], rng);
    try {
      const std::string once = round_trip(input);
      EXPECT_EQ(round_trip(once), once) << "mutation " << i << ": " << input;
      ++accepted;
    } catch (const Rejection&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << " threw " << typeid(e).name()
                    << " (" << e.what() << "), not "
                    << typeid(Rejection).name() << ": " << input;
    }
  }
  // Both outcomes must be exercised, or the mutations test nothing.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(CodecFuzz, TrajectoryCheckpointReader) {
  fuzz({kTrajectoryPin, checkpoint_to_json(TrajectoryCheckpoint{})},
       [](const std::string& text) {
         return checkpoint_to_json(checkpoint_from_json(text));
       },
       101);
}

TEST(CodecFuzz, OnlineCheckpointReader) {
  fuzz({kOnlinePin, online_checkpoint_to_json(OnlineCheckpoint{})},
       [](const std::string& text) {
         return online_checkpoint_to_json(online_checkpoint_from_json(text));
       },
       102);
}

TEST(CodecFuzz, LocalExpertsStateReader) {
  const linalg::Matrix x = grid(16, 3);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = x(i, 0) + x(i, 2);
  stats::Rng rng(5);
  auto fitted = local_experts(3);
  fitted->fit(x, y, rng);
  fuzz({fitted->save_state(), local_experts()->save_state()},
       [](const std::string& text) {
         auto backend = local_experts();
         backend->restore_state(text);
         return backend->save_state();
       },
       103);
}

TEST(CodecFuzz, ResilientStateReader) {
  gp::BackendOptions options;
  options.kind = gp::BackendKind::kLocalExperts;
  options.experts = 2;
  const auto make = [&options] {
    return gp::make_resilient_backend(
        options, resilience::Options{}, [] { return gp::make_paper_kernel(); },
        gp::GprOptions{});
  };
  const std::string inner =
      "centroids v1;2x2;0x3ff0000000000000,0x4000000000000000,"
      "0x4008000000000000,0x4010000000000000";
  fuzz({"resil v1;rung=0;health=0;breaker=1,2,0,0;thetas=;inner=" +
            std::to_string(inner.size()) + ":" + inner,
        "resil v1;rung=1;health=1;breaker=0,3,0,1;"
        "thetas=0x3ff0000000000000,0xbfd0000000000000;inner=0:",
        "resil v1;rung=2;health=2;breaker=3,9,0,2;"
        "thetas=0x3ff0000000000000|0xbfd0000000000000,0x0000000000000000;"
        "inner=0:",
        inner},
       [&make](const std::string& text) {
         auto backend = make();
         backend->restore_state(text);
         return backend->save_state();
       },
       104);
}

TEST(CodecFuzz, FaultPlanParser) {
  fuzz<std::invalid_argument>(
      {"seed=7;acquire.oom:p=0.05;opt.diverge:hits=3|9;"
       "cholesky.non_psd:p=1,max=2",
       "io.torn_write:hits=2;io.partial_read:hits=0|4", "seed=19;data.nan_row:p=0.03", ""},
      [](const std::string& text) {
        return faults::FaultPlan::parse(text).to_string();
      },
      105);
}

TEST(CodecFuzz, CsvReader) {
  data::Dataset d;
  d.feature_names = {"p", "mx", "r0"};
  d.x = linalg::Matrix{{4.0, 8.0, 0.2}, {32.0, 32.0, 0.5}, {16.0, 8.0, 1e-3}};
  d.wallclock = {1.97, 4262.73, 12.5};
  d.cost = {0.002, 11.853, 0.25};
  d.memory = {0.02, 32.56, 1.5};
  fuzz({data::to_csv_string(d), "a,b,wallclock_s,cost_nh,maxrss_mb\r\n"
                               "1,-2.5,3,4,5\r\n\r\n0,0,1e-3,2e3,7\r\n"},
       [](const std::string& text) {
         return data::to_csv_string(data::from_csv_string(text));
       },
       106);
}

}  // namespace
