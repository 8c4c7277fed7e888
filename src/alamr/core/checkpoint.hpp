#pragma once

// Trajectory checkpointing: the complete mid-trajectory state of the AL
// driver, serialized to JSON with doubles stored as exact 64-bit hex bit
// patterns, framed with a version header + CRC32, and written by atomic
// rename with N-generation retention — so a resumed run continues
// byte-for-byte identically to an uninterrupted one even when the newest
// generation was torn mid-write (DESIGN.md §14).
//
// Durable frame (format version 2):
//
//   ALAMR-CKPT v2 len=<payload bytes> crc32=<8 lowercase hex>\n<payload>
//
// The CRC covers the payload only, so a torn write (header present,
// payload cut short) and a partial read both fail the length or checksum
// check and the loader falls back to the next older generation. Files
// whose payload starts with '{' are pre-frame (format 1) checkpoints and
// still load. Generations rotate on save: <path> is newest, <path>.1 the
// previous save, ... up to CheckpointConfig::retain. Corrupt generations
// are quarantined in place by renaming to <generation>.bad; a frame
// announcing a NEWER format version than this build understands is not
// corruption — loading throws CheckpointVersionError and keeps the file.
//
// Byte-identical resume leans on two repo invariants: (1) the posterior
// is a pure function of (X_learned, labels, theta) and the incremental and
// full rebuild paths produce the same bits (golden-tested), so rebuilding
// the models at the saved theta reproduces the live state exactly; and
// (2) all randomness flows through the trajectory's Rng, whose full state
// (including the Marsaglia-polar cache) is captured here.
//
// Fault sites: save consults io.torn_write (cuts the published file short)
// and load consults io.partial_read (truncates the in-memory read; the
// loader retries the read once before treating the file as corrupt).

#include <array>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "alamr/core/faults.hpp"
#include "alamr/core/online.hpp"
#include "alamr/core/simulator.hpp"
#include "alamr/stats/rng.hpp"

namespace alamr::core {

/// Version of the durable on-disk frame this build reads and writes.
inline constexpr std::uint64_t kCheckpointFormatVersion = 2;

/// A checkpoint written by a NEWER build than this one. Deliberately not
/// treated as corruption: the file is kept on disk untouched so the newer
/// build can still resume from it.
struct CheckpointVersionError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What the loader did while hunting for an intact generation.
struct CheckpointLoadReport {
  std::filesystem::path loaded_from;  ///< empty when nothing was found
  std::size_t generations_scanned = 0;
  std::size_t fallbacks = 0;     ///< corrupt generations skipped over
  std::size_t read_retries = 0;  ///< rereads that recovered a short read
  std::vector<std::filesystem::path> quarantined;  ///< renamed to *.bad
};

/// CRC-32 (IEEE 802.3, reflected 0xedb88320) of `data`.
std::uint32_t crc32(std::string_view data) noexcept;

/// Wraps `payload` in the durable frame (header + payload).
std::string frame_payload(std::string_view payload);

/// The on-disk name of generation `generation` (0 = `path` itself).
std::filesystem::path checkpoint_generation_path(
    const std::filesystem::path& path, std::size_t generation);

/// Rotates generations and atomically publishes a framed `payload` as
/// generation 0 of `path`, retaining up to `retain` generations. Consults
/// the io.torn_write fault site.
void save_durable_payload(std::string_view payload,
                          const std::filesystem::path& path,
                          std::size_t retain = 3);

/// Scans generations newest-first for an intact frame and returns its
/// payload; corrupt generations are quarantined to *.bad and skipped
/// (recorded in `report` when given). std::nullopt when no generation
/// exists at all; throws std::runtime_error when generations existed but
/// every one was corrupt, and CheckpointVersionError (keeping the file)
/// when a generation was written by a newer format version.
std::optional<std::string> load_durable_payload(
    const std::filesystem::path& path, std::size_t retain = 3,
    CheckpointLoadReport* report = nullptr);

/// Deletes every generation of `path` plus its .tmp remnant. Quarantined
/// *.bad files are kept — they are forensic evidence, not state.
void remove_durable_payload(const std::filesystem::path& path,
                            std::size_t retain = 3);

/// The model pair's share of a checkpoint, common to both payloads: what
/// rebuilding the cost and memory surrogates at their saved state needs
/// beyond the learned rows and labels, plus the rng stream and fault
/// counters the continuation picks up from.
struct ModelPairState {
  /// Kernel log-hyperparameters of the two models. Ensemble backends
  /// concatenate per-expert parameters in their log_params() order.
  std::vector<double> theta_cost;
  std::vector<double> theta_mem;

  /// Opaque auxiliary backend state (PosteriorBackend::save_state) — state
  /// NOT derivable from (learned rows, labels, theta), e.g. the
  /// local-experts backend's frozen centroids. Empty for backends without
  /// such state (exact, subset-of-data).
  std::string backend_state_cost;
  std::string backend_state_mem;

  stats::Rng::State rng;

  // Fault-injector counters, so the continuation consults schedules at
  // the same hit numbers the uninterrupted run would have.
  std::array<std::uint64_t, faults::kSiteCount> fault_hits{};
  std::array<std::uint64_t, faults::kSiteCount> fault_fires{};
};

/// Everything run_trajectory needs to continue mid-flight.
struct TrajectoryCheckpoint {
  /// Compatibility fingerprint: the trajectory fingerprint (options +
  /// strategy + partition) plus the canonical fault-plan spec. Resume
  /// refuses a checkpoint whose fingerprint differs — a different config
  /// could silently produce a chimera trajectory.
  std::string fingerprint;

  std::uint64_t passes = 0;   // loop passes recorded (== iterations.size())
  std::uint64_t trained = 0;  // successful (uncensored) acquisitions

  std::vector<std::uint64_t> learned;  // Init + acquired dataset rows
  std::vector<std::uint64_t> active;   // remaining Active dataset rows
  /// Training labels in learned order (penalized labels included — they
  /// are NOT recoverable from the dataset).
  std::vector<double> c_learned;
  std::vector<double> m_learned;

  ModelPairState models;

  double cc = 0.0;
  double cr = 0.0;
  double last_rmse_cost = 0.0;
  double last_rmse_mem = 0.0;
  double last_rmse_weighted = 0.0;
  bool last_record_evaluated = true;
  double initial_rmse_cost = 0.0;
  double initial_rmse_mem = 0.0;

  // Stabilizing-predictions stopping-rule state.
  std::uint64_t stable_streak = 0;
  std::vector<double> previous_cost_mu_log;

  std::uint64_t censored_count = 0;
  double censored_cost = 0.0;

  std::vector<IterationRecord> iterations;
};

/// Serializes `state` to JSON (doubles as hex bit patterns).
std::string checkpoint_to_json(const TrajectoryCheckpoint& state);

/// Parses what checkpoint_to_json produced. Throws std::runtime_error on
/// malformed input.
TrajectoryCheckpoint checkpoint_from_json(const std::string& json);

/// Durable save: rotates generations, then writes `path` + ".tmp" and
/// renames over `path` with the CRC32/version frame.
void save_checkpoint(const TrajectoryCheckpoint& state,
                     const std::filesystem::path& path,
                     std::size_t retain = 3);

/// Loads the newest intact generation of `path`; std::nullopt when no
/// generation exists. Throws std::runtime_error when generations existed
/// but none was loadable, CheckpointVersionError (file kept) for frames
/// from a newer build.
std::optional<TrajectoryCheckpoint> load_checkpoint(
    const std::filesystem::path& path, std::size_t retain = 3,
    CheckpointLoadReport* report = nullptr);

/// Deletes every generation of a completed run's checkpoint.
void remove_checkpoint(const std::filesystem::path& path,
                       std::size_t retain = 3);

/// Everything OnlineAlDriver::run needs to continue mid-flight. The
/// remaining candidate set is NOT stored: it is the grid order minus the
/// visited and abandoned rows, which both are.
struct OnlineCheckpoint {
  /// Options/strategy/grid fingerprint plus the plan in force (same
  /// compatibility contract as TrajectoryCheckpoint::fingerprint).
  std::string fingerprint;

  std::uint64_t al_iterations_done = 0;  // post-init selections recorded

  std::vector<std::uint64_t> visited;  // grid rows in execution order
  std::vector<std::uint64_t> skipped;  // rows dropped after oracle giveups
  /// log10 measurements in visited order.
  std::vector<double> log_cost;
  std::vector<double> log_mem;

  ModelPairState models;

  double cc = 0.0;
  double cr = 0.0;
  std::uint64_t oracle_giveups = 0;
  bool exhausted_safe_candidates = false;

  std::vector<OnlineRecord> records;
};

/// Serializes/parses the online checkpoint (same hex-bit JSON dialect as
/// the trajectory codec).
std::string online_checkpoint_to_json(const OnlineCheckpoint& state);
OnlineCheckpoint online_checkpoint_from_json(const std::string& json);

/// Durable save/load/remove for online runs — identical frame,
/// generation, quarantine, and version semantics to the trajectory
/// checkpoint entry points above.
void save_online_checkpoint(const OnlineCheckpoint& state,
                            const std::filesystem::path& path,
                            std::size_t retain = 3);
std::optional<OnlineCheckpoint> load_online_checkpoint(
    const std::filesystem::path& path, std::size_t retain = 3,
    CheckpointLoadReport* report = nullptr);
void remove_online_checkpoint(const std::filesystem::path& path,
                              std::size_t retain = 3);

}  // namespace alamr::core
