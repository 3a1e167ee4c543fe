// perfbench/report.cpp — options, digests, statistics, report and span totals.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "formats/bgzf.h"
#include "perfbench.h"
#include "util/binio.h"

namespace perfbench {

Options::Options(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("expected --key value, got '" + key + "'");
    }
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Options::str(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::runtime_error("missing option --" + key);
  }
  return it->second;
}

std::string Options::str(const std::string& key,
                         const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int64_t Options::num(const std::string& key) const {
  return std::stoll(str(key));
}

int64_t Options::num(const std::string& key, int64_t fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::stoll(it->second);
}

double Options::real(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : std::stod(it->second);
}

uint32_t crc_of(std::string_view bytes, uint32_t crc) {
  return ngsx::bgzf::crc32(crc, bytes.data(), bytes.size());
}

uint32_t crc_of_files(const std::vector<std::string>& paths) {
  uint32_t crc = 0;
  std::string buf(4 << 20, '\0');
  for (const auto& path : paths) {
    ngsx::InputFile in(path);
    for (uint64_t at = 0; at < in.size();) {
      size_t n = in.pread(buf.data(), buf.size(), at);
      crc = ngsx::bgzf::crc32(crc, buf.data(), n);
      at += n;
    }
  }
  return crc;
}

uint32_t crc_of_doubles(const std::vector<double>& values) {
  return ngsx::bgzf::crc32(0, values.data(), values.size() * sizeof(double));
}

std::string hex_bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
  return buf;
}

void write_kv(const std::string& path, const KeyValues& kv) {
  std::ofstream out(path);
  for (const auto& [key, value] : kv) {
    out << key << '=' << value << '\n';
  }
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

KeyValues read_kv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  KeyValues kv;
  std::string line;
  while (std::getline(in, line)) {
    size_t eq = line.find('=');
    if (eq != std::string::npos) {
      kv[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }
  return kv;
}

const std::string& kv_get(const KeyValues& kv, const std::string& key) {
  auto it = kv.find(key);
  if (it == kv.end()) {
    throw std::runtime_error("reference file lacks '" + key + "'");
  }
  return it->second;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// ------------------------------------------------------------------- Report

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";  // the wrapper rejects a run carrying a null metric
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::fingerprint(const std::string& key, const std::string& value) {
  fingerprint_.push_back({key, json_string(value)});
}

void Report::fingerprint(const std::string& key, double value) {
  fingerprint_.push_back({key, json_number(value)});
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 5) {
      failures_.push_back(what);
    }
  }
}

std::string Report::json(double setup_s) const {
  std::string out = "{\"setup_s\": " + json_number(setup_s);
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? ", " : "") + json_string(failures_[i]);
  }
  out += "], \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    out += (i ? ", " : "") + json_string(name) + ": {\"value\": " +
           json_number(vu.first) + ", \"unit\": " + json_string(vu.second) +
           "}";
  }
  out += "}, \"fingerprint\": {";
  for (size_t i = 0; i < fingerprint_.size(); ++i) {
    out += (i ? ", " : "") + json_string(fingerprint_[i].first) + ": " +
           fingerprint_[i].second;
  }
  return out + "}}";
}

// -------------------------------------------------------------------- spans

std::map<std::string, double> span_totals(const std::string& trace_json) {
  // trace_json() writes one event per line; names are string literals.
  static constexpr std::string_view kName = "\"name\": \"";
  static constexpr std::string_view kDur = "\"dur\": ";
  std::map<std::string, double> totals;
  std::string_view rest = trace_json;
  while (!rest.empty()) {
    const size_t nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? "" : rest.substr(nl + 1);
    const size_t name = line.find(kName);
    const size_t dur = line.find(kDur);
    if (line.find("\"ph\": \"X\"") == std::string_view::npos ||
        name == std::string_view::npos || dur == std::string_view::npos) {
      continue;
    }
    const size_t from = name + kName.size();
    const std::string key(line.substr(from, line.find('"', from) - from));
    totals[key] += std::strtod(line.data() + dur + kDur.size(), nullptr) / 1e6;
  }
  return totals;
}

std::string with_metrics(const std::string& trace_json,
                         const std::string& metrics_json) {
  const size_t close = trace_json.rfind('}');
  if (close == std::string::npos) {
    throw std::runtime_error("not a trace document");
  }
  return trace_json.substr(0, close) + ", \"ngsxMetrics\": " +
         (metrics_json.empty() ? "{}" : metrics_json) + "}";
}

}  // namespace perfbench
