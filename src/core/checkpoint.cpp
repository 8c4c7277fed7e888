#include "alamr/core/checkpoint.hpp"

#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <type_traits>

#include "alamr/core/hex_bits.hpp"
#include "alamr/core/trace.hpp"

namespace alamr::core {

namespace {

constexpr std::uint64_t kVersion = 1;
/// Payload schema version for OnlineCheckpoint (independent of the
/// trajectory payload's version and of the frame format version).
constexpr std::uint64_t kOnlineVersion = 1;

// ---- The field lists -------------------------------------------------------
// Each payload is described once: a `fields(v, s)` per struct visits its
// (key, member) pairs in byte order, and the Writer and the Reader below
// are its two visitors, so the bytes written and the order the reader
// expects come from one list. Keys both payloads carry are listed once,
// in the shared pieces (payload head, model pair, totals, predictions).

template <typename T, typename U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

template <typename V, Is<stats::Rng::State> S>
void fields(V& v, S& s) {
  v("words", s.words);
  v("cached_normal", s.cached_normal);
  v("has_cached_normal", s.has_cached_normal);
}

/// The chosen candidate's predicted log10 cost and memory; trajectory
/// records carry each one's sigma too.
template <typename V, typename R>
void predictions(V& v, R& r) {
  v("predicted_cost_log10", r.predicted_cost_log10);
  if constexpr (requires { r.predicted_cost_sigma; }) {
    v("predicted_cost_sigma", r.predicted_cost_sigma);
  }
  v("predicted_mem_log10", r.predicted_mem_log10);
  if constexpr (requires { r.predicted_mem_sigma; }) {
    v("predicted_mem_sigma", r.predicted_mem_sigma);
  }
}

/// CC and CR (Eq. 11) after one record.
template <typename V, typename R>
void record_totals(V& v, R& r) {
  v("cumulative_cost", r.cumulative_cost);
  v("cumulative_regret", r.cumulative_regret);
}

template <typename V, Is<IterationRecord> R>
void fields(V& v, R& r) {
  v("iteration", r.iteration);
  v("dataset_row", r.dataset_row);
  v("actual_cost", r.actual_cost);
  v("actual_memory", r.actual_memory);
  predictions(v, r);
  v("rmse_cost", r.rmse_cost);
  v("rmse_mem", r.rmse_mem);
  v("rmse_cost_weighted", r.rmse_cost_weighted);
  record_totals(v, r);
  v("candidates_before", r.candidates_before);
  v("censor", r.censor);
}

template <typename V, Is<OnlineRecord> R>
void fields(V& v, R& r) {
  v("grid_row", r.grid_row);
  v("cost", r.cost);
  v("memory", r.memory);
  predictions(v, r);
  record_totals(v, r);
  v("initial_phase", r.initial_phase);
}

/// The head of the model pair's block, which both payloads carry after
/// their labels (θ, backend states, rng), then the run's CC and CR. The
/// payload's own scalars follow, then model_pair_tail.
template <typename V, typename S>
void model_pair_head(V& v, S& s) {
  v("theta_cost", s.models.theta_cost);
  v("theta_mem", s.models.theta_mem);
  // Files written before backend states existed lack these two keys.
  v.optional("backend_state_cost", s.models.backend_state_cost);
  v.optional("backend_state_mem", s.models.backend_state_mem);
  v("rng", s.models.rng);
  v("cc", s.cc);
  v("cr", s.cr);
}

template <typename V, typename S>
void model_pair_tail(V& v, S& s) {
  v("fault_hits", s.models.fault_hits);
  v("fault_fires", s.models.fault_fires);
}

template <typename V, Is<TrajectoryCheckpoint> S>
void fields(V& v, S& s) {
  v("passes", s.passes);
  v("trained", s.trained);
  v("learned", s.learned);
  v("active", s.active);
  v("c_learned", s.c_learned);
  v("m_learned", s.m_learned);
  model_pair_head(v, s);
  v("last_rmse_cost", s.last_rmse_cost);
  v("last_rmse_mem", s.last_rmse_mem);
  v("last_rmse_weighted", s.last_rmse_weighted);
  v("last_record_evaluated", s.last_record_evaluated);
  v("initial_rmse_cost", s.initial_rmse_cost);
  v("initial_rmse_mem", s.initial_rmse_mem);
  v("stable_streak", s.stable_streak);
  v("previous_cost_mu_log", s.previous_cost_mu_log);
  v("censored_count", s.censored_count);
  v("censored_cost", s.censored_cost);
  model_pair_tail(v, s);
  v("iterations", s.iterations);
}

template <typename V, Is<OnlineCheckpoint> S>
void fields(V& v, S& s) {
  v("al_iterations_done", s.al_iterations_done);
  v("visited", s.visited);
  v("skipped", s.skipped);
  v("log_cost", s.log_cost);
  v("log_mem", s.log_mem);
  model_pair_head(v, s);
  v("oracle_giveups", s.oracle_giveups);
  v("exhausted_safe_candidates", s.exhausted_safe_candidates);
  model_pair_tail(v, s);
  v("records", s.records);
}

/// A payload opens with its schema version; the online one then tags its
/// kind, so neither reader takes the other's payload. The fingerprint
/// follows, then the payload's own fields.
template <typename V, typename S>
void payload(V& v, S& s) {
  constexpr bool kOnline = Is<S, OnlineCheckpoint>;
  v.version("version", kOnline ? kOnlineVersion : kVersion);
  if constexpr (kOnline) v.tag("kind", "online");
  v("fingerprint", s.fingerprint);
  fields(v, s);
}

/// A struct with a field list: written and read as a JSON object.
template <typename S, typename V>
concept Record = requires(V& v, S& s) { fields(v, s); };

template <typename U>
concept Counter = std::unsigned_integral<U> && !std::same_as<U, bool>;

// ---- The writer ------------------------------------------------------------

class Writer {
 public:
  template <typename S>
  static std::string encode(const S& s) {
    Writer w;
    w.out_.reserve(1024);
    w.out_ += '{';
    payload(w, s);
    w.out_ += '}';
    return std::move(w.out_);
  }

  template <typename T>
  void operator()(std::string_view key, const T& value) {
    if (!first_) out_ += ',';
    first_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\":";
    put(value);
  }
  template <typename T>
  void optional(std::string_view key, const T& value) {
    (*this)(key, value);
  }
  void version(std::string_view key, std::uint64_t version) {
    (*this)(key, version);
  }
  void tag(std::string_view key, std::string_view kind) { (*this)(key, kind); }

 private:
  template <Counter U>
  void put(U v) {
    char buffer[24];
    out_.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer),
                                      static_cast<std::uint64_t>(v)).ptr);
  }
  void put(CensorKind kind) { put(static_cast<std::uint64_t>(kind)); }
  void put(bool v) { out_ += v ? "true" : "false"; }
  /// The hex_bits image, quoted.
  void put(double v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    const auto bits = std::bit_cast<std::uint64_t>(v);
    out_ += "\"0x";
    for (int shift = 60; shift >= 0; shift -= 4) {
      out_ += kDigits[(bits >> shift) & 0xfu];
    }
    out_ += '"';
  }
  void put(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default: out_ += c; break;
      }
    }
    out_ += '"';
  }
  template <typename T>
  void put(const std::vector<T>& values) {
    list(values);
  }
  template <std::size_t N>
  void put(const std::array<std::uint64_t, N>& values) {
    list(values);
  }
  template <Record<Writer> S>
  void put(const S& s) {
    out_ += '{';
    first_ = true;
    fields(*this, s);
    out_ += '}';
    first_ = false;
  }

  template <typename L>
  void list(const L& values) {
    out_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) out_ += ',';
      put(values[i]);
    }
    out_ += ']';
  }

  std::string out_;
  bool first_ = true;  // the next key opens its object
};

static_assert(faults::kSiteCount != 4,
              "the rng words and the fault counters need distinct types");

// ---- The reader ------------------------------------------------------------
// Walks the same field lists over the text in one pass, expecting each key
// where the writer puts it (optional keys may be absent). Every value is
// type-checked, and every malformation is a std::runtime_error prefixed
// with `who` ("checkpoint", "online checkpoint").

class Reader {
 public:
  Reader(std::string_view text, std::string who)
      : text_(text), who_(std::move(who)) {}

  template <typename S>
  S decode() {
    S s;
    object([&] { payload(*this, s); });
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return s;
  }

  template <typename T>
  void operator()(std::string_view key, T& value) {
    if (!take_key(key)) error("missing key '" + std::string(key) + "'");
    get(value);
  }
  template <typename T>
  void optional(std::string_view key, T& value) {
    if (take_key(key)) get(value);
  }
  void version(std::string_view key, std::uint64_t max) {
    std::uint64_t version = 0;
    (*this)(key, version);
    if (version > max) {
      // Written by a newer build: refuse loudly and leave the file alone
      // (treating this as corruption would quarantine state the newer
      // build could still resume from).
      throw CheckpointVersionError(
          who_ + ": payload version " + std::to_string(version) +
          " is newer than this build understands (max " +
          std::to_string(max) + "); keeping the file");
    }
    if (version != max) {
      error("unsupported version " + std::to_string(version));
    }
  }
  void tag(std::string_view key, std::string_view kind) {
    if (!take_key(key) || peek() != '"' || string() != kind) {
      error("payload is not an " + std::string(kind) + "-run checkpoint");
    }
  }

 private:
  [[noreturn]] void error(const std::string& what) const {
    throw std::runtime_error(who_ + ": " + what);
  }
  [[noreturn]] void fail(const std::string& what) const {
    error("JSON parse error at offset " + std::to_string(pos_) + ": " + what);
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
  static bool is_digit(char c) { return c >= '0' && c <= '9'; }

  /// Consumes `"key":`, preceded by ',' unless it opens its object, and
  /// returns true; leaves the input untouched and returns false when
  /// the next key is another one (or there is none).
  bool take_key(std::string_view key) {
    const std::size_t at = pos_;
    if (!first_) {
      if (peek() != ',') return false;
      ++pos_;
    }
    skip_ws();
    const std::string_view rest = text_.substr(pos_);
    if (rest.size() < key.size() + 2 || rest[0] != '"' ||
        rest.substr(1, key.size()) != key || rest[key.size() + 1] != '"') {
      pos_ = at;
      return false;
    }
    pos_ += key.size() + 2;
    expect(':');
    first_ = false;
    return true;
  }

  template <typename F>
  void object(F&& body) {
    expect('{');
    first_ = true;
    body();
    expect('}');
    first_ = false;
  }
  /// `[e, ...]`, calling `element` to read each e.
  template <typename F>
  void list(F&& element) {
    if (peek() != '[') fail("expected an array");
    ++pos_;
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      element();
      if (peek() != ',') break;
      ++pos_;
    }
    expect(']');
  }

  std::uint64_t number() {
    if (!is_digit(peek())) fail("expected an unsigned integer");
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    return parse_decimal(text_.substr(begin, pos_ - begin), who_);
  }
  std::string string() {
    if (peek() != '"') fail("expected a string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        switch (text_[pos_++]) {
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
  double f64() {
    if (peek() != '"') fail("double must be a hex-bits string");
    const std::size_t close = text_.find('"', pos_ + 1);
    if (close == std::string_view::npos) fail("unterminated string");
    const std::string_view bits = text_.substr(pos_ + 1, close - pos_ - 1);
    pos_ = close + 1;
    return bits_from_hex(bits, who_);
  }
  /// Reads a u64 list into `out`, failing with `too_many` past N values;
  /// returns the count.
  template <std::size_t N>
  std::size_t words(std::array<std::uint64_t, N>& out,
                    const std::string& too_many) {
    std::size_t n = 0;
    list([&] {
      const std::uint64_t v = number();
      if (n == N) error(too_many);
      out[n++] = v;
    });
    return n;
  }

  template <Counter U>
  void get(U& v) {
    v = number();
  }
  void get(CensorKind& kind) {
    const std::uint64_t v = number();
    if (v > static_cast<std::uint64_t>(CensorKind::kNanRow)) {
      error("bad censor kind");
    }
    kind = static_cast<CensorKind>(v);
  }
  void get(bool& v) {
    skip_ws();
    const std::string_view rest = text_.substr(pos_);
    v = rest.starts_with("true");
    if (!v && !rest.starts_with("false")) fail("expected true or false");
    pos_ += v ? 4 : 5;
  }
  void get(double& v) { v = f64(); }
  void get(std::string& s) { s = string(); }
  void get(std::vector<std::uint64_t>& out) {
    list([&] { out.push_back(number()); });
  }
  void get(std::vector<double>& out) {
    list([&] { out.push_back(f64()); });
  }
  template <Record<Reader> S>
  void get(std::vector<S>& out) {
    list([&] { get(out.emplace_back()); });
  }
  template <Record<Reader> S>
  void get(S& s) {
    object([&] { fields(*this, s); });
  }
  void get(std::array<std::uint64_t, 4>& rng_words) {
    const std::string arity = "rng state must have 4 words";
    if (words(rng_words, arity) != rng_words.size()) error(arity);
  }
  /// Fewer counters than this build knows is a file written before new
  /// sites were appended — the missing tail starts at zero
  /// consultations, which is exactly right. More counters means an
  /// unknown newer site roster: refuse rather than silently drop state.
  /// Hits and fires must have one length.
  void get(std::array<std::uint64_t, faults::kSiteCount>& counters) {
    const std::string arity = "fault counter arity mismatch";
    const std::size_t n = words(counters, arity);
    if (counter_length_.has_value() && *counter_length_ != n) error(arity);
    counter_length_ = n;
  }

  std::string_view text_;
  std::string who_;
  std::size_t pos_ = 0;
  bool first_ = true;  // the next key opens its object
  std::optional<std::size_t> counter_length_;
};

}  // namespace

std::string checkpoint_to_json(const TrajectoryCheckpoint& state) {
  return Writer::encode(state);
}

TrajectoryCheckpoint checkpoint_from_json(const std::string& json) {
  return Reader(json, "checkpoint").decode<TrajectoryCheckpoint>();
}

std::string online_checkpoint_to_json(const OnlineCheckpoint& state) {
  return Writer::encode(state);
}

OnlineCheckpoint online_checkpoint_from_json(const std::string& json) {
  OnlineCheckpoint s =
      Reader(json, "online checkpoint").decode<OnlineCheckpoint>();
  if (s.log_cost.size() != s.visited.size() ||
      s.log_mem.size() != s.visited.size()) {
    throw std::runtime_error(
        "online checkpoint: label/visited length mismatch");
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
struct FrameResult {
  std::string payload;
  std::string why;  // corruption diagnosis; empty when the frame is intact
  bool ok() const { return why.empty(); }
};

/// The version, length and CRC of a header that reads exactly
/// `ALAMR-CKPT v<digits> len=<digits> crc32=<8 hex>`; nullopt for any
/// other spelling (a sign, a space, an overflowing number, a short CRC,
/// trailing bytes), which is corruption like a bad CRC.
std::optional<std::array<std::uint64_t, 3>> parse_frame_header(
    std::string_view header) {
  static constexpr std::array<std::string_view, 3> kLeads = {
      kFrameMagic, " len=", " crc32="};
  std::array<std::uint64_t, 3> out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!header.starts_with(kLeads[i])) return std::nullopt;
    header.remove_prefix(kLeads[i].size());
    const bool crc = i + 1 == out.size();
    const std::string_view digits =
        header.substr(0, crc ? header.size() : header.find(' '));
    const char* end = digits.data() + digits.size();
    const auto [ptr, ec] =
        std::from_chars(digits.data(), end, out[i], crc ? 16 : 10);
    if (ec != std::errc{} || ptr != end || (crc && digits.size() != 8)) {
      return std::nullopt;
    }
    header.remove_prefix(digits.size());
  }
  return out;
}

/// Validates a durable frame (or a pre-frame format-1 JSON file) and
/// extracts the payload. Throws CheckpointVersionError for frames from a
/// newer format — that is a refusal, not corruption.
FrameResult validate_frame(const std::string& bytes,
                           const std::filesystem::path& path) {
  if (!bytes.empty() && bytes.front() == '{') {
    // Format 1: bare JSON, no frame. The payload codec's own version
    // field gates schema compatibility.
    return {bytes, ""};
  }
  if (!bytes.starts_with(kFrameMagic)) return {"", "bad frame magic"};
  const std::size_t header_end = bytes.find('\n');
  if (header_end == std::string::npos) {
    return {"", "unterminated frame header"};
  }
  const std::string_view header = std::string_view(bytes).substr(0, header_end);
  const auto fields = parse_frame_header(header);
  if (!fields.has_value()) {
    return {"", "malformed frame header '" + std::string(header) + "'"};
  }
  const auto [version, length, crc] = *fields;
  if (version > kCheckpointFormatVersion) {
    throw CheckpointVersionError(
        "checkpoint: " + path.string() + " has format version " +
        std::to_string(version) + ", newer than this build understands (max " +
        std::to_string(kCheckpointFormatVersion) + "); keeping the file");
  }
  const std::string_view payload =
      std::string_view(bytes).substr(header_end + 1);
  if (payload.size() != length) {
    return {"", "payload length " + std::to_string(payload.size()) +
                    " != header len " + std::to_string(length)};
  }
  if (crc32(payload) != crc) return {"", "crc32 mismatch"};
  return {std::string(payload), ""};
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
    if (!frame.ok()) {
      // One retry: a short read is transient (the file on disk may be
      // fine), a torn write is not — the reread distinguishes them.
      bytes = read_file(gen);
      if (bytes.has_value()) {
        frame = validate_frame(*bytes, gen);
        if (frame.ok()) {
          ++rep.read_retries;
          trace::count("resilience.io_read_retries");
        }
      }
    }
    if (frame.ok()) {
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
