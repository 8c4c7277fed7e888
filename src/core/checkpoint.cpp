#include "alamr/core/checkpoint.hpp"

#include <array>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "alamr/core/hex_bits.hpp"
#include "alamr/core/trace.hpp"

namespace alamr::core {

namespace {

// ---- JSON writing --------------------------------------------------------
// Doubles are stored as the hex image of their 64 bits ("0x3ff0...", see
// hex_bits.hpp).

void write_escaped(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default: os << c; break;
    }
  }
  os << '"';
}

template <typename T>
void write_u64_array(std::ostringstream& os, const char* key,
                     const T& values) {
  os << '"' << key << "\":[";
  bool first = true;
  for (const auto v : values) {
    os << (first ? "" : ",") << static_cast<std::uint64_t>(v);
    first = false;
  }
  os << ']';
}

void write_double_array(std::ostringstream& os, const char* key,
                        const std::vector<double>& values) {
  os << '"' << key << "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i == 0 ? "" : ",") << '"' << hex_bits(values[i]) << '"';
  }
  os << ']';
}

// ---- JSON parsing --------------------------------------------------------
// A minimal recursive-descent parser for the subset this file emits:
// objects, arrays, strings, unsigned integers, true/false. Good enough to
// reject truncated or hand-mangled files with a clear error.

struct JsonValue {
  enum class Type { kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNumber;
  bool boolean = false;
  std::uint64_t number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue& at(const std::string& key) const {
    if (const JsonValue* v = find(key)) return *v;
    throw std::runtime_error("checkpoint: missing key '" + key + "'");
  }

  /// Lookup for keys added after version 1 shipped: nullptr when absent,
  /// so pre-existing checkpoint files still parse (and are then accepted
  /// or rejected by the fingerprint gate, not a parse error).
  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("checkpoint: JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.type = JsonValue::Type::kString;
        v.str = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        if (text_.compare(pos_, 4, "true") == 0) {
          v.boolean = true;
          pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
          v.boolean = false;
          pos_ += 5;
        } else {
          fail("bad literal");
        }
        return v;
      }
      default: {
        JsonValue v;
        v.type = JsonValue::Type::kNumber;
        if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad value");
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          v.number = v.number * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
          ++pos_;
        }
        return v;
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: fail("unsupported escape");
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = parse_string();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

double read_double(const JsonValue& v) {
  if (v.type != JsonValue::Type::kString) {
    throw std::runtime_error("checkpoint: double must be a hex-bits string");
  }
  return bits_from_hex(v.str, "checkpoint");
}

std::vector<double> read_double_array(const JsonValue& v) {
  std::vector<double> out;
  out.reserve(v.array.size());
  for (const JsonValue& e : v.array) out.push_back(read_double(e));
  return out;
}

std::vector<std::uint64_t> read_u64_array(const JsonValue& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.array.size());
  for (const JsonValue& e : v.array) {
    if (e.type != JsonValue::Type::kNumber) {
      throw std::runtime_error("checkpoint: expected unsigned integer");
    }
    out.push_back(e.number);
  }
  return out;
}

// ---- The model pair's block ---------------------------------------------
// Both payloads carry a ModelPairState under the same keys, in their
// historical order: theta, backend states and rng after the labels, the
// fault counters after the payload's own scalars, which the writer takes
// as a callback. Files already on disk keep their bytes.

template <typename Between>
void write_model_pair(std::ostringstream& os, const ModelPairState& s,
                      Between&& between) {
  write_double_array(os, "theta_cost", s.theta_cost);
  os << ',';
  write_double_array(os, "theta_mem", s.theta_mem);
  os << ",\"backend_state_cost\":";
  write_escaped(os, s.backend_state_cost);
  os << ",\"backend_state_mem\":";
  write_escaped(os, s.backend_state_mem);
  os << ",\"rng\":{";
  write_u64_array(os, "words", s.rng.words);
  os << ",\"cached_normal\":\"" << hex_bits(s.rng.cached_normal) << '"'
     << ",\"has_cached_normal\":"
     << (s.rng.has_cached_normal ? "true" : "false") << '}';
  between();
  os << ',';
  write_u64_array(os, "fault_hits", s.fault_hits);
  os << ',';
  write_u64_array(os, "fault_fires", s.fault_fires);
}

/// `who` prefixes the error messages ("checkpoint", "online checkpoint").
/// The backend states are optional: files written before they existed
/// still parse.
ModelPairState read_model_pair(const JsonValue& root, const std::string& who) {
  ModelPairState s;
  s.theta_cost = read_double_array(root.at("theta_cost"));
  s.theta_mem = read_double_array(root.at("theta_mem"));
  if (const JsonValue* v = root.find("backend_state_cost")) {
    s.backend_state_cost = v->str;
  }
  if (const JsonValue* v = root.find("backend_state_mem")) {
    s.backend_state_mem = v->str;
  }
  const JsonValue& rng = root.at("rng");
  const std::vector<std::uint64_t> words = read_u64_array(rng.at("words"));
  if (words.size() != s.rng.words.size()) {
    throw std::runtime_error(who + ": rng state must have 4 words");
  }
  std::copy(words.begin(), words.end(), s.rng.words.begin());
  s.rng.cached_normal = read_double(rng.at("cached_normal"));
  s.rng.has_cached_normal = rng.at("has_cached_normal").boolean;
  const std::vector<std::uint64_t> hits = read_u64_array(root.at("fault_hits"));
  const std::vector<std::uint64_t> fires =
      read_u64_array(root.at("fault_fires"));
  // Fewer counters than this build knows is a file written before new
  // sites were appended — the missing tail starts at zero consultations,
  // which is exactly right. More counters means an unknown newer site
  // roster: refuse rather than silently drop state.
  if (hits.size() > faults::kSiteCount || fires.size() > faults::kSiteCount ||
      hits.size() != fires.size()) {
    throw std::runtime_error(who + ": fault counter arity mismatch");
  }
  std::copy(hits.begin(), hits.end(), s.fault_hits.begin());
  std::copy(fires.begin(), fires.end(), s.fault_fires.begin());
  return s;
}

/// Parses `json` and gates its payload version against `max`.
JsonValue parse_payload(const std::string& json, std::uint64_t max,
                        const std::string& who) {
  JsonValue root = JsonParser(json).parse();
  const std::uint64_t version = root.at("version").number;
  if (version > max) {
    // Written by a newer build: refuse loudly and leave the file alone
    // (treating this as corruption would quarantine state the newer
    // build could still resume from).
    throw CheckpointVersionError(
        who + ": payload version " + std::to_string(version) +
        " is newer than this build understands (max " + std::to_string(max) +
        "); keeping the file");
  }
  if (version != max) {
    throw std::runtime_error(who + ": unsupported version " +
                             std::to_string(version));
  }
  return root;
}

constexpr std::uint64_t kVersion = 1;
/// Payload schema version for OnlineCheckpoint (independent of the
/// trajectory payload's version and of the frame format version).
constexpr std::uint64_t kOnlineVersion = 1;

}  // namespace

std::string checkpoint_to_json(const TrajectoryCheckpoint& s) {
  std::ostringstream os;
  os << "{\"version\":" << kVersion << ",";
  os << "\"fingerprint\":";
  write_escaped(os, s.fingerprint);
  os << ",\"passes\":" << s.passes << ",\"trained\":" << s.trained << ',';
  write_u64_array(os, "learned", s.learned);
  os << ',';
  write_u64_array(os, "active", s.active);
  os << ',';
  write_double_array(os, "c_learned", s.c_learned);
  os << ',';
  write_double_array(os, "m_learned", s.m_learned);
  os << ',';
  write_model_pair(os, s.models, [&] {
    os << ",\"cc\":\"" << hex_bits(s.cc) << '"';
    os << ",\"cr\":\"" << hex_bits(s.cr) << '"';
    os << ",\"last_rmse_cost\":\"" << hex_bits(s.last_rmse_cost) << '"';
    os << ",\"last_rmse_mem\":\"" << hex_bits(s.last_rmse_mem) << '"';
    os << ",\"last_rmse_weighted\":\"" << hex_bits(s.last_rmse_weighted)
       << '"';
    os << ",\"last_record_evaluated\":"
       << (s.last_record_evaluated ? "true" : "false");
    os << ",\"initial_rmse_cost\":\"" << hex_bits(s.initial_rmse_cost) << '"';
    os << ",\"initial_rmse_mem\":\"" << hex_bits(s.initial_rmse_mem) << '"';
    os << ",\"stable_streak\":" << s.stable_streak << ',';
    write_double_array(os, "previous_cost_mu_log", s.previous_cost_mu_log);
    os << ",\"censored_count\":" << s.censored_count;
    os << ",\"censored_cost\":\"" << hex_bits(s.censored_cost) << '"';
  });
  os << ",\"iterations\":[";
  for (std::size_t i = 0; i < s.iterations.size(); ++i) {
    const IterationRecord& r = s.iterations[i];
    os << (i == 0 ? "" : ",") << "{\"iteration\":" << r.iteration
       << ",\"dataset_row\":" << r.dataset_row
       << ",\"actual_cost\":\"" << hex_bits(r.actual_cost) << '"'
       << ",\"actual_memory\":\"" << hex_bits(r.actual_memory) << '"'
       << ",\"predicted_cost_log10\":\"" << hex_bits(r.predicted_cost_log10)
       << '"' << ",\"predicted_cost_sigma\":\""
       << hex_bits(r.predicted_cost_sigma) << '"'
       << ",\"predicted_mem_log10\":\"" << hex_bits(r.predicted_mem_log10)
       << '"' << ",\"predicted_mem_sigma\":\""
       << hex_bits(r.predicted_mem_sigma) << '"'
       << ",\"rmse_cost\":\"" << hex_bits(r.rmse_cost) << '"'
       << ",\"rmse_mem\":\"" << hex_bits(r.rmse_mem) << '"'
       << ",\"rmse_cost_weighted\":\"" << hex_bits(r.rmse_cost_weighted) << '"'
       << ",\"cumulative_cost\":\"" << hex_bits(r.cumulative_cost) << '"'
       << ",\"cumulative_regret\":\"" << hex_bits(r.cumulative_regret) << '"'
       << ",\"candidates_before\":" << r.candidates_before
       << ",\"censor\":" << static_cast<std::uint64_t>(r.censor) << '}';
  }
  os << "]}";
  return os.str();
}

TrajectoryCheckpoint checkpoint_from_json(const std::string& json) {
  const JsonValue root = parse_payload(json, kVersion, "checkpoint");
  TrajectoryCheckpoint s;
  s.fingerprint = root.at("fingerprint").str;
  s.passes = root.at("passes").number;
  s.trained = root.at("trained").number;
  s.learned = read_u64_array(root.at("learned"));
  s.active = read_u64_array(root.at("active"));
  s.c_learned = read_double_array(root.at("c_learned"));
  s.m_learned = read_double_array(root.at("m_learned"));
  s.models = read_model_pair(root, "checkpoint");
  s.cc = read_double(root.at("cc"));
  s.cr = read_double(root.at("cr"));
  s.last_rmse_cost = read_double(root.at("last_rmse_cost"));
  s.last_rmse_mem = read_double(root.at("last_rmse_mem"));
  s.last_rmse_weighted = read_double(root.at("last_rmse_weighted"));
  s.last_record_evaluated = root.at("last_record_evaluated").boolean;
  s.initial_rmse_cost = read_double(root.at("initial_rmse_cost"));
  s.initial_rmse_mem = read_double(root.at("initial_rmse_mem"));
  s.stable_streak = root.at("stable_streak").number;
  s.previous_cost_mu_log = read_double_array(root.at("previous_cost_mu_log"));
  s.censored_count = root.at("censored_count").number;
  s.censored_cost = read_double(root.at("censored_cost"));
  for (const JsonValue& rec : root.at("iterations").array) {
    IterationRecord r;
    r.iteration = rec.at("iteration").number;
    r.dataset_row = rec.at("dataset_row").number;
    r.actual_cost = read_double(rec.at("actual_cost"));
    r.actual_memory = read_double(rec.at("actual_memory"));
    r.predicted_cost_log10 = read_double(rec.at("predicted_cost_log10"));
    r.predicted_cost_sigma = read_double(rec.at("predicted_cost_sigma"));
    r.predicted_mem_log10 = read_double(rec.at("predicted_mem_log10"));
    r.predicted_mem_sigma = read_double(rec.at("predicted_mem_sigma"));
    r.rmse_cost = read_double(rec.at("rmse_cost"));
    r.rmse_mem = read_double(rec.at("rmse_mem"));
    r.rmse_cost_weighted = read_double(rec.at("rmse_cost_weighted"));
    r.cumulative_cost = read_double(rec.at("cumulative_cost"));
    r.cumulative_regret = read_double(rec.at("cumulative_regret"));
    r.candidates_before = rec.at("candidates_before").number;
    const std::uint64_t censor = rec.at("censor").number;
    if (censor > static_cast<std::uint64_t>(CensorKind::kNanRow)) {
      throw std::runtime_error("checkpoint: bad censor kind");
    }
    r.censor = static_cast<CensorKind>(censor);
    s.iterations.push_back(std::move(r));
  }
  return s;
}

// ---- Durable frame + generation retention --------------------------------

namespace {

constexpr std::string_view kFrameMagic = "ALAMR-CKPT v";

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    table[n] = c;
  }
  return table;
}

std::string crc32_hex(std::uint32_t crc) {
  char buffer[12];
  std::snprintf(buffer, sizeof(buffer), "%08x", crc);
  return buffer;
}

/// Outcome of validating one generation's bytes.
enum class FrameStatus { kOk, kCorrupt };

struct FrameResult {
  FrameStatus status = FrameStatus::kCorrupt;
  std::string payload;
  std::string why;  // corruption diagnosis for the final error message
};

/// Validates a durable frame (or a pre-frame format-1 JSON file) and
/// extracts the payload. Throws CheckpointVersionError for frames from a
/// newer format — that is a refusal, not corruption.
FrameResult validate_frame(const std::string& bytes,
                           const std::filesystem::path& path) {
  FrameResult out;
  if (!bytes.empty() && bytes.front() == '{') {
    // Format 1: bare JSON, no frame. The payload codec's own version
    // field gates schema compatibility.
    out.status = FrameStatus::kOk;
    out.payload = bytes;
    return out;
  }
  if (bytes.size() < kFrameMagic.size() ||
      std::string_view(bytes).substr(0, kFrameMagic.size()) != kFrameMagic) {
    out.why = "bad frame magic";
    return out;
  }
  const std::size_t header_end = bytes.find('\n');
  if (header_end == std::string::npos) {
    out.why = "unterminated frame header";
    return out;
  }
  const std::string header = bytes.substr(0, header_end);
  unsigned long long version = 0;
  unsigned long long length = 0;
  unsigned crc = 0;
  if (std::sscanf(header.c_str(), "ALAMR-CKPT v%llu len=%llu crc32=%8x",
                  &version, &length, &crc) != 3) {
    out.why = "malformed frame header '" + header + "'";
    return out;
  }
  if (version > kCheckpointFormatVersion) {
    throw CheckpointVersionError(
        "checkpoint: " + path.string() + " has format version " +
        std::to_string(version) + ", newer than this build understands (max " +
        std::to_string(kCheckpointFormatVersion) + "); keeping the file");
  }
  const std::string_view payload =
      std::string_view(bytes).substr(header_end + 1);
  if (payload.size() != length) {
    out.why = "payload length " + std::to_string(payload.size()) +
              " != header len " + std::to_string(length);
    return out;
  }
  if (crc32(payload) != crc) {
    out.why = "crc32 mismatch";
    return out;
  }
  out.status = FrameStatus::kOk;
  out.payload = std::string(payload);
  return out;
}

/// Reads a whole file; consults the io.partial_read fault site, which
/// truncates the returned bytes to model a short read.
std::optional<std::string> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  if (faults::fire(faults::Site::kIoPartialRead)) {
    trace::count("resilience.io_partial_reads");
    bytes.resize(bytes.size() / 2);
  }
  return bytes;
}

}  // namespace

std::uint32_t crc32(std::string_view data) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = 0xffffffffu;
  for (const char c : data) {
    crc = table[(crc ^ static_cast<unsigned char>(c)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::string frame_payload(std::string_view payload) {
  std::string frame;
  frame.reserve(payload.size() + 48);
  frame += kFrameMagic;
  frame += std::to_string(kCheckpointFormatVersion);
  frame += " len=";
  frame += std::to_string(payload.size());
  frame += " crc32=";
  frame += crc32_hex(crc32(payload));
  frame += '\n';
  frame += payload;
  return frame;
}

std::filesystem::path checkpoint_generation_path(
    const std::filesystem::path& path, std::size_t generation) {
  if (generation == 0) return path;
  return std::filesystem::path(path).concat("." +
                                            std::to_string(generation));
}

void save_durable_payload(std::string_view payload,
                          const std::filesystem::path& path,
                          std::size_t retain) {
  if (retain == 0) retain = 1;
  // Rotate: <path>.{retain-2} -> <path>.{retain-1}, ..., <path> -> <path>.1.
  // Renames are best-effort (a missing generation is simply a gap).
  for (std::size_t g = retain - 1; g >= 1; --g) {
    std::error_code ec;
    std::filesystem::rename(checkpoint_generation_path(path, g - 1),
                            checkpoint_generation_path(path, g), ec);
  }
  std::string frame = frame_payload(payload);
  if (faults::fire(faults::Site::kIoTornWrite)) {
    // A torn write publishes the header plus roughly half the payload:
    // the frame's length/CRC checks catch it on load.
    trace::count("resilience.io_torn_writes");
    const std::size_t header_end = frame.find('\n') + 1;
    frame.resize(header_end + (frame.size() - header_end) / 2);
  }
  const std::filesystem::path tmp = std::filesystem::path(path).concat(".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      throw std::runtime_error("save_checkpoint: cannot open " + tmp.string());
    }
    out << frame;
    out.flush();
    if (!out.good()) {
      throw std::runtime_error("save_checkpoint: write failed for " +
                               tmp.string());
    }
  }
  // Atomic publish: a concurrent reader sees either the old complete file
  // or the new complete file, never a partial write.
  std::filesystem::rename(tmp, path);
}

std::optional<std::string> load_durable_payload(
    const std::filesystem::path& path, std::size_t retain,
    CheckpointLoadReport* report) {
  if (retain == 0) retain = 1;
  CheckpointLoadReport local;
  CheckpointLoadReport& rep = report != nullptr ? *report : local;
  bool found_any = false;
  std::string first_why;
  // Scan newest-first. Quarantine can leave gaps (generation g renamed to
  // .bad while g+1 survives), so keep scanning past missing files up to a
  // hard cap beyond the retention window.
  constexpr std::size_t kScanCap = 64;
  for (std::size_t g = 0; g < std::max(retain, kScanCap); ++g) {
    const std::filesystem::path gen = checkpoint_generation_path(path, g);
    std::optional<std::string> bytes = read_file(gen);
    if (!bytes.has_value()) {
      if (g + 1 >= retain) break;  // past the window and nothing there
      continue;
    }
    found_any = true;
    ++rep.generations_scanned;
    FrameResult frame = validate_frame(*bytes, gen);
    if (frame.status != FrameStatus::kOk) {
      // One retry: a short read is transient (the file on disk may be
      // fine), a torn write is not — the reread distinguishes them.
      bytes = read_file(gen);
      if (bytes.has_value()) {
        frame = validate_frame(*bytes, gen);
        if (frame.status == FrameStatus::kOk) {
          ++rep.read_retries;
          trace::count("resilience.io_read_retries");
        }
      }
    }
    if (frame.status == FrameStatus::kOk) {
      rep.loaded_from = gen;
      return frame.payload;
    }
    if (first_why.empty()) {
      first_why = gen.string() + ": " + frame.why;
    }
    // Corrupt: quarantine to <gen>.bad and fall back to the next older
    // generation. rename overwrites an existing .bad from a prior crash.
    const std::filesystem::path bad =
        std::filesystem::path(gen).concat(".bad");
    std::error_code ec;
    std::filesystem::rename(gen, bad, ec);
    if (!ec) rep.quarantined.push_back(bad);
    ++rep.fallbacks;
    trace::count("resilience.ckpt_quarantined");
    trace::count("resilience.ckpt_fallbacks");
  }
  if (!found_any) return std::nullopt;
  throw std::runtime_error(
      "checkpoint: no intact generation of " + path.string() +
      " (first failure: " + first_why + "); corrupt generations quarantined "
      "to *.bad");
}

void remove_durable_payload(const std::filesystem::path& path,
                            std::size_t retain) {
  if (retain == 0) retain = 1;
  std::error_code ec;
  constexpr std::size_t kScanCap = 64;
  for (std::size_t g = 0; g < std::max(retain, kScanCap); ++g) {
    const bool existed =
        std::filesystem::remove(checkpoint_generation_path(path, g), ec);
    if (!existed && g + 1 >= retain) break;
  }
  std::filesystem::remove(std::filesystem::path(path).concat(".tmp"), ec);
}

void save_checkpoint(const TrajectoryCheckpoint& state,
                     const std::filesystem::path& path, std::size_t retain) {
  save_durable_payload(checkpoint_to_json(state), path, retain);
  trace::count("resilience.ckpt_saves");
}

std::optional<TrajectoryCheckpoint> load_checkpoint(
    const std::filesystem::path& path, std::size_t retain,
    CheckpointLoadReport* report) {
  const std::optional<std::string> payload =
      load_durable_payload(path, retain, report);
  if (!payload.has_value()) return std::nullopt;
  return checkpoint_from_json(*payload);
}

void remove_checkpoint(const std::filesystem::path& path, std::size_t retain) {
  remove_durable_payload(path, retain);
}

// ---- Online-run checkpoint ------------------------------------------------

std::string online_checkpoint_to_json(const OnlineCheckpoint& s) {
  std::ostringstream os;
  os << "{\"version\":" << kOnlineVersion << ",";
  os << "\"kind\":\"online\",";
  os << "\"fingerprint\":";
  write_escaped(os, s.fingerprint);
  os << ",\"al_iterations_done\":" << s.al_iterations_done << ',';
  write_u64_array(os, "visited", s.visited);
  os << ',';
  write_u64_array(os, "skipped", s.skipped);
  os << ',';
  write_double_array(os, "log_cost", s.log_cost);
  os << ',';
  write_double_array(os, "log_mem", s.log_mem);
  os << ',';
  write_model_pair(os, s.models, [&] {
    os << ",\"cc\":\"" << hex_bits(s.cc) << '"';
    os << ",\"cr\":\"" << hex_bits(s.cr) << '"';
    os << ",\"oracle_giveups\":" << s.oracle_giveups;
    os << ",\"exhausted_safe_candidates\":"
       << (s.exhausted_safe_candidates ? "true" : "false");
  });
  os << ",\"records\":[";
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    const OnlineRecord& r = s.records[i];
    os << (i == 0 ? "" : ",") << "{\"grid_row\":" << r.grid_row
       << ",\"cost\":\"" << hex_bits(r.cost) << '"'
       << ",\"memory\":\"" << hex_bits(r.memory) << '"'
       << ",\"predicted_cost_log10\":\"" << hex_bits(r.predicted_cost_log10)
       << '"' << ",\"predicted_mem_log10\":\""
       << hex_bits(r.predicted_mem_log10) << '"'
       << ",\"cumulative_cost\":\"" << hex_bits(r.cumulative_cost) << '"'
       << ",\"cumulative_regret\":\"" << hex_bits(r.cumulative_regret) << '"'
       << ",\"initial_phase\":" << (r.initial_phase ? "true" : "false")
       << '}';
  }
  os << "]}";
  return os.str();
}

OnlineCheckpoint online_checkpoint_from_json(const std::string& json) {
  const JsonValue root =
      parse_payload(json, kOnlineVersion, "online checkpoint");
  if (const JsonValue* kind = root.find("kind");
      kind == nullptr || kind->str != "online") {
    throw std::runtime_error(
        "online checkpoint: payload is not an online-run checkpoint");
  }
  OnlineCheckpoint s;
  s.fingerprint = root.at("fingerprint").str;
  s.al_iterations_done = root.at("al_iterations_done").number;
  s.visited = read_u64_array(root.at("visited"));
  s.skipped = read_u64_array(root.at("skipped"));
  s.log_cost = read_double_array(root.at("log_cost"));
  s.log_mem = read_double_array(root.at("log_mem"));
  if (s.log_cost.size() != s.visited.size() ||
      s.log_mem.size() != s.visited.size()) {
    throw std::runtime_error(
        "online checkpoint: label/visited length mismatch");
  }
  s.models = read_model_pair(root, "online checkpoint");
  s.cc = read_double(root.at("cc"));
  s.cr = read_double(root.at("cr"));
  s.oracle_giveups = root.at("oracle_giveups").number;
  s.exhausted_safe_candidates = root.at("exhausted_safe_candidates").boolean;
  for (const JsonValue& rec : root.at("records").array) {
    OnlineRecord r;
    r.grid_row = rec.at("grid_row").number;
    r.cost = read_double(rec.at("cost"));
    r.memory = read_double(rec.at("memory"));
    r.predicted_cost_log10 = read_double(rec.at("predicted_cost_log10"));
    r.predicted_mem_log10 = read_double(rec.at("predicted_mem_log10"));
    r.cumulative_cost = read_double(rec.at("cumulative_cost"));
    r.cumulative_regret = read_double(rec.at("cumulative_regret"));
    r.initial_phase = rec.at("initial_phase").boolean;
    s.records.push_back(r);
  }
  return s;
}

void save_online_checkpoint(const OnlineCheckpoint& state,
                            const std::filesystem::path& path,
                            std::size_t retain) {
  save_durable_payload(online_checkpoint_to_json(state), path, retain);
  trace::count("resilience.ckpt_saves");
}

std::optional<OnlineCheckpoint> load_online_checkpoint(
    const std::filesystem::path& path, std::size_t retain,
    CheckpointLoadReport* report) {
  const std::optional<std::string> payload =
      load_durable_payload(path, retain, report);
  if (!payload.has_value()) return std::nullopt;
  return online_checkpoint_from_json(*payload);
}

void remove_online_checkpoint(const std::filesystem::path& path,
                              std::size_t retain) {
  remove_durable_payload(path, retain);
}

}  // namespace alamr::core
