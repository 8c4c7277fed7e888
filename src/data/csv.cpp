#include "alamr/data/csv.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace alamr::data {

namespace {

/// Drops a trailing '\r' so files written on Windows (CRLF line endings)
/// parse identically to LF files.
void strip_carriage_return(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) fields.push_back(field);
  return fields;
}

double parse_double(const std::string& token, std::size_t line_number) {
  double value = 0.0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw std::runtime_error("CSV parse error at line " +
                             std::to_string(line_number) + ": '" + token + "'");
  }
  return value;
}

/// from_chars happily parses "nan" and "inf"; features must at least be
/// finite for the unit-cube scaler to be meaningful.
double parse_feature(const std::string& token, std::size_t line_number) {
  const double value = parse_double(token, line_number);
  if (!std::isfinite(value)) {
    throw std::runtime_error("CSV: non-finite feature at line " +
                             std::to_string(line_number) + ": '" + token + "'");
  }
  return value;
}

/// Responses feed log10 transforms downstream (log-space GPR targets,
/// goodness weights), where zero, negative, or non-finite values would
/// silently poison the models with -inf/NaN. Reject them at the boundary.
double parse_response(const std::string& token, std::size_t line_number,
                      const char* column) {
  const double value = parse_double(token, line_number);
  if (!std::isfinite(value) || value <= 0.0) {
    throw std::runtime_error("CSV: " + std::string(column) + " at line " +
                             std::to_string(line_number) +
                             " must be finite and positive, got '" + token +
                             "'");
  }
  return value;
}

}  // namespace

std::string to_csv_string(const Dataset& dataset) {
  dataset.validate();
  std::ostringstream os;
  os.precision(17);
  for (std::size_t j = 0; j < dataset.dim(); ++j) {
    if (dataset.feature_names.empty()) {
      os << 'f' << j << ',';
    } else {
      os << dataset.feature_names[j] << ',';
    }
  }
  os << "wallclock_s,cost_nh,maxrss_mb\n";
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    for (std::size_t j = 0; j < dataset.dim(); ++j) os << dataset.x(i, j) << ',';
    os << dataset.wallclock[i] << ',' << dataset.cost[i] << ','
       << dataset.memory[i] << '\n';
  }
  return os.str();
}

Dataset from_csv_string(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line)) throw std::runtime_error("CSV: empty input");
  strip_carriage_return(line);

  const std::vector<std::string> header = split_line(line);
  if (header.size() < 4) {
    throw std::runtime_error("CSV: need at least one feature and 3 responses");
  }
  const std::size_t dim = header.size() - 3;

  Dataset dataset;
  dataset.feature_names.assign(header.begin(),
                               header.begin() + static_cast<std::ptrdiff_t>(dim));

  std::vector<double> flat;
  std::size_t rows = 0;
  std::size_t line_number = 1;
  while (std::getline(is, line)) {
    ++line_number;
    strip_carriage_return(line);
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_line(line);
    if (fields.size() != header.size()) {
      throw std::runtime_error("CSV: wrong field count at line " +
                               std::to_string(line_number));
    }
    for (std::size_t j = 0; j < dim; ++j) {
      flat.push_back(parse_feature(fields[j], line_number));
    }
    dataset.wallclock.push_back(
        parse_response(fields[dim], line_number, "wallclock"));
    dataset.cost.push_back(parse_response(fields[dim + 1], line_number, "cost"));
    dataset.memory.push_back(
        parse_response(fields[dim + 2], line_number, "memory"));
    ++rows;
  }

  dataset.x = Matrix(rows, dim);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      dataset.x(i, j) = flat[i * dim + j];
    }
  }
  dataset.validate();
  return dataset;
}

void write_csv(const Dataset& dataset, const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_csv: cannot open " + path.string());
  out << to_csv_string(dataset);
  if (!out) throw std::runtime_error("write_csv: write failed for " + path.string());
}

Dataset read_csv(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_csv: cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_csv_string(buffer.str());
}

}  // namespace alamr::data
