// Durable checkpoint layer (core/checkpoint.hpp, DESIGN.md §14): CRC32
// framing, generation rotation, torn-write/partial-read fault handling,
// quarantine + fallback, version gating (newer-format files are refused
// but KEPT), and the online checkpoint codec round-trip.

#include "alamr/core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "alamr/core/faults.hpp"
#include "alamr/data/partition.hpp"
#include "synthetic_dataset.hpp"

namespace {

using namespace alamr;
using namespace alamr::core;
namespace faults = alamr::core::faults;
namespace fs = std::filesystem;

fs::path temp_path(const char* name) {
  const fs::path p = fs::temp_directory_path() / name;
  remove_durable_payload(p, 8);
  std::error_code ec;
  fs::remove(fs::path(p).concat(".bad"), ec);
  fs::remove(fs::path(p).concat(".1.bad"), ec);
  return p;
}

std::string read_all(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

TEST(DurableCheckpoint, FrameRoundTripsAndCarriesVersionHeader) {
  const fs::path path = temp_path("alamr_durable_roundtrip.ckpt");
  save_durable_payload("{\"k\":1}", path);
  const std::string on_disk = read_all(path);
  EXPECT_EQ(on_disk.rfind("ALAMR-CKPT v2 ", 0), 0u) << on_disk;
  const auto payload = load_durable_payload(path);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"k\":1}");
  remove_durable_payload(path);
  EXPECT_FALSE(fs::exists(path));
}

TEST(DurableCheckpoint, MissingFileIsNullopt) {
  const fs::path path = temp_path("alamr_durable_missing.ckpt");
  EXPECT_FALSE(load_durable_payload(path).has_value());
}

TEST(DurableCheckpoint, RotationRetainsGenerationsNewestFirst) {
  const fs::path path = temp_path("alamr_durable_rotate.ckpt");
  save_durable_payload("gen A", path, 3);
  save_durable_payload("gen B", path, 3);
  save_durable_payload("gen C", path, 3);
  save_durable_payload("gen D", path, 3);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_TRUE(fs::exists(checkpoint_generation_path(path, 1)));
  EXPECT_TRUE(fs::exists(checkpoint_generation_path(path, 2)));
  // retain=3 keeps generations 0..2; "gen A" has aged out.
  EXPECT_FALSE(fs::exists(checkpoint_generation_path(path, 3)));
  CheckpointLoadReport report;
  const auto newest = load_durable_payload(path, 3, &report);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(*newest, "gen D");
  EXPECT_EQ(report.loaded_from, path);
  remove_durable_payload(path, 3);
}

TEST(DurableCheckpoint, CorruptNewestQuarantinedAndOlderGenerationLoads) {
  const fs::path path = temp_path("alamr_durable_corrupt.ckpt");
  save_durable_payload("intact older state", path, 3);
  save_durable_payload("newest state", path, 3);
  {
    // Flip one payload byte in the newest generation: CRC must catch it.
    std::string bytes = read_all(path);
    bytes.back() ^= 0x20;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  CheckpointLoadReport report;
  const auto payload = load_durable_payload(path, 3, &report);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "intact older state");
  EXPECT_EQ(report.fallbacks, 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_TRUE(fs::exists(report.quarantined[0]));
  EXPECT_EQ(report.quarantined[0].extension(), ".bad");
  EXPECT_FALSE(fs::exists(path));  // moved aside, not deleted
  // remove keeps the quarantined evidence.
  remove_durable_payload(path, 3);
  EXPECT_TRUE(fs::exists(report.quarantined[0]));
  std::error_code ec;
  fs::remove(report.quarantined[0], ec);
}

TEST(DurableCheckpoint, TornWriteFaultFallsBackToPreviousGeneration) {
  const fs::path path = temp_path("alamr_durable_torn.ckpt");
  faults::FaultInjector injector(
      faults::FaultPlan::parse("io.torn_write:hits=1"));
  const faults::ScopedFaultInjector scope(injector);
  save_durable_payload("first save", path, 3);   // hit 0: clean
  save_durable_payload("second save", path, 3);  // hit 1: torn mid-write
  CheckpointLoadReport report;
  const auto payload = load_durable_payload(path, 3, &report);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "first save");
  EXPECT_EQ(report.fallbacks, 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  remove_durable_payload(path, 3);
  std::error_code ec;
  fs::remove(report.quarantined[0], ec);
}

TEST(DurableCheckpoint, PartialReadIsRetriedWithoutQuarantine) {
  const fs::path path = temp_path("alamr_durable_partial.ckpt");
  save_durable_payload("short-read payload", path, 3);
  faults::FaultInjector injector(
      faults::FaultPlan::parse("io.partial_read:hits=0"));
  const faults::ScopedFaultInjector scope(injector);
  CheckpointLoadReport report;
  const auto payload = load_durable_payload(path, 3, &report);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "short-read payload");
  EXPECT_EQ(report.read_retries, 1u);  // reread recovered the transient
  EXPECT_EQ(report.fallbacks, 0u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_TRUE(fs::exists(path));
  remove_durable_payload(path, 3);
}

TEST(DurableCheckpoint, NewerFormatVersionRefusedAndFileKept) {
  const fs::path path = temp_path("alamr_durable_future.ckpt");
  const std::string payload = "payload from the future";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    char header[64];
    std::snprintf(header, sizeof(header), "ALAMR-CKPT v99 len=%zu crc32=%08x",
                  payload.size(), crc32(payload));
    out << header << '\n' << payload;
  }
  try {
    load_durable_payload(path);
    FAIL() << "expected CheckpointVersionError";
  } catch (const CheckpointVersionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 99"), std::string::npos) << what;
    EXPECT_NE(what.find("keeping the file"), std::string::npos) << what;
  }
  // Refusal, not corruption: the file survives untouched for the newer
  // build that wrote it.
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(fs::path(path).concat(".bad")));
  remove_durable_payload(path);
}

TEST(DurableCheckpoint, LooseFrameHeadersAreQuarantinedNotObeyed) {
  // The header must read exactly "ALAMR-CKPT v<digits> len=<digits>
  // crc32=<8 hex>". Anything looser is corruption: quarantined, and the
  // older generation loads. The files are written directly (no save), so
  // an armed io.torn_write plan cannot touch them.
  const fs::path path = temp_path("alamr_durable_header.ckpt");
  const std::string older = "older state";
  const std::string newer = "newer state";
  const std::string len = std::to_string(newer.size());
  char crc_hex[12];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc32(newer));
  const std::string crc = crc_hex;
  for (const std::string& header :
       {"ALAMR-CKPT v-1 len=" + len + " crc32=" + crc,
        "ALAMR-CKPT v18446744073709551618 len=" + len + " crc32=" + crc,
        "ALAMR-CKPT v 2 len=" + len + " crc32=" + crc,
        "ALAMR-CKPT v+2 len=" + len + " crc32=" + crc,
        "ALAMR-CKPT v2 len=+" + len + " crc32=" + crc,
        "ALAMR-CKPT v2  len=" + len + " crc32=" + crc,
        "ALAMR-CKPT v2 len=" + len + " crc32=" + crc.substr(6),
        "ALAMR-CKPT v2 len=" + len + " crc32=" + crc + " trailing",
        "ALAMR-CKPT v2 len=" + len + " crc32=0x" + crc.substr(2)}) {
    SCOPED_TRACE(header);
    {
      std::ofstream out(checkpoint_generation_path(path, 1),
                        std::ios::binary | std::ios::trunc);
      out << frame_payload(older);
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << header << '\n' << newer;
    }
    CheckpointLoadReport report;
    const auto payload = load_durable_payload(path, 3, &report);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(*payload, older);
    EXPECT_EQ(report.fallbacks, 1u);
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.quarantined[0], fs::path(path).concat(".bad"));
    EXPECT_FALSE(fs::exists(path));
  }
  remove_durable_payload(path, 3);
  std::error_code ec;
  fs::remove(fs::path(path).concat(".bad"), ec);
}

TEST(DurableCheckpoint, LegacyBareJsonStillLoads) {
  const fs::path path = temp_path("alamr_durable_legacy.ckpt");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\"version\":1}";
  }
  const auto payload = load_durable_payload(path);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"version\":1}");
  remove_durable_payload(path);
}

TEST(DurableCheckpoint, AllGenerationsCorruptThrowsNamingFirstFailure) {
  const fs::path path = temp_path("alamr_durable_allbad.ckpt");
  save_durable_payload("older", path, 2);
  save_durable_payload("newer", path, 2);
  for (std::size_t g = 0; g < 2; ++g) {
    const fs::path gen = checkpoint_generation_path(path, g);
    std::string bytes = read_all(gen);
    bytes.back() ^= 0x01;
    std::ofstream out(gen, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  try {
    load_durable_payload(path, 2);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no intact generation"), std::string::npos) << what;
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
  }
  std::error_code ec;
  fs::remove(fs::path(path).concat(".bad"), ec);
  fs::remove(fs::path(path).concat(".1.bad"), ec);
}

TEST(DurableCheckpoint, OnlineCheckpointJsonRoundTrips) {
  OnlineCheckpoint s;
  s.fingerprint = "fp-123";
  s.al_iterations_done = 4;
  s.visited = {9, 2, 5};
  s.skipped = {7};
  s.log_cost = {-1.5, 0.25, 3.0};
  s.log_mem = {0.5, 1.5, 2.5};
  s.models.theta_cost = {0.1, -0.2, 0.3};
  s.models.theta_mem = {1.0};
  s.models.backend_state_cost = "resil v1;opaque \"quoted\" state";
  s.models.rng = stats::Rng(77).save_state();
  s.cc = 12.5;
  s.cr = 0.75;
  s.oracle_giveups = 2;
  s.exhausted_safe_candidates = true;
  s.models.fault_hits[0] = 11;
  s.models.fault_fires[0] = 3;
  OnlineRecord rec;
  rec.grid_row = 9;
  rec.cost = 1.25;
  rec.memory = 100.0;
  rec.predicted_cost_log10 = 0.09;
  rec.predicted_mem_log10 = 2.0;
  rec.cumulative_cost = 1.25;
  rec.cumulative_regret = 0.0;
  rec.initial_phase = true;
  s.records = {rec};

  const OnlineCheckpoint r =
      online_checkpoint_from_json(online_checkpoint_to_json(s));
  EXPECT_EQ(r.fingerprint, s.fingerprint);
  EXPECT_EQ(r.al_iterations_done, s.al_iterations_done);
  EXPECT_EQ(r.visited, s.visited);
  EXPECT_EQ(r.skipped, s.skipped);
  EXPECT_EQ(r.log_cost, s.log_cost);
  EXPECT_EQ(r.log_mem, s.log_mem);
  EXPECT_EQ(r.models.theta_cost, s.models.theta_cost);
  EXPECT_EQ(r.models.backend_state_cost, s.models.backend_state_cost);
  EXPECT_EQ(r.models.backend_state_mem, "");
  EXPECT_EQ(r.models.rng.words, s.models.rng.words);
  EXPECT_EQ(r.cc, s.cc);
  EXPECT_EQ(r.cr, s.cr);
  EXPECT_EQ(r.oracle_giveups, 2u);
  EXPECT_TRUE(r.exhausted_safe_candidates);
  EXPECT_EQ(r.models.fault_hits[0], 11u);
  EXPECT_EQ(r.models.fault_fires[0], 3u);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].grid_row, 9u);
  EXPECT_EQ(r.records[0].cost, 1.25);
  EXPECT_TRUE(r.records[0].initial_phase);
}

TEST(DurableCheckpoint, OnlineCodecRejectsTrajectoryPayload) {
  TrajectoryCheckpoint t;
  t.fingerprint = "fp";
  EXPECT_THROW(online_checkpoint_from_json(checkpoint_to_json(t)),
               std::runtime_error);
}

TEST(CheckpointVersionGate, ResumeRefusesNewerCheckpointAndKeepsIt) {
  // Satellite (a): a run_resumable resume against a checkpoint written by
  // a NEWER build must fail with a clear error and leave the file alone.
  const fs::path path = temp_path("alamr_version_gate.ckpt");
  const std::string payload = "{\"whatever\": true}";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    char header[64];
    std::snprintf(header, sizeof(header), "ALAMR-CKPT v3 len=%zu crc32=%08x",
                  payload.size(), crc32(payload));
    out << header << '\n' << payload;
  }
  const auto dataset = alamr::testing::synthetic_amr_dataset(90, 31);
  core::AlOptions options;
  options.n_test = 30;
  options.n_init = 12;
  options.max_iterations = 3;
  options.initial_fit.restarts = 0;
  options.initial_fit.max_opt_iterations = 10;
  options.refit.max_opt_iterations = 3;
  const core::AlSimulator sim(dataset, options);
  stats::Rng prng(5);
  const data::Partition partition =
      data::make_partition(dataset.size(), options.n_test, options.n_init, prng);
  core::CheckpointConfig cfg;
  cfg.path = path;
  cfg.resume = true;
  stats::Rng rng(41);
  try {
    sim.run_resumable(core::RandGoodness(), partition, rng, cfg);
    FAIL() << "expected CheckpointVersionError";
  } catch (const CheckpointVersionError& e) {
    EXPECT_NE(std::string(e.what()).find("format version 3"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(fs::exists(path)) << "version refusal must keep the file";
  EXPECT_EQ(read_all(path).rfind("ALAMR-CKPT v3 ", 0), 0u)
      << "file must be byte-identical after the refusal";
  remove_durable_payload(path);
}

}  // namespace
