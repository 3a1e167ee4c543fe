// perfbench/perfbench.h
//
// Shared plumbing of the end-to-end benchmark harness: command-line
// options, content digests, key=value files, order statistics, the
// result report and the span totals of the traced run.
//
// The harness is one binary with three modes (see main.cpp): `gen-*`
// writes a seeded dataset plus the reference digests of its sequential
// outputs, `setup` times one cold start of a workload, and `measure`
// runs a workload for a fixed wall budget and prints one JSON result.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------------ options

/// "--key value" pairs after the mode word.
class Options {
 public:
  Options(int argc, char** argv, int first);

  std::string str(const std::string& key) const;
  std::string str(const std::string& key, const std::string& fallback) const;
  int64_t num(const std::string& key) const;
  int64_t num(const std::string& key, int64_t fallback) const;
  double real(const std::string& key, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

// ------------------------------------------------------------------ digests

/// CRC-32 of a byte string, chained from `crc`.
uint32_t crc_of(std::string_view bytes, uint32_t crc = 0);

/// CRC-32 of the concatenation of `paths`, in order.
uint32_t crc_of_files(const std::vector<std::string>& paths);

/// CRC-32 of the raw bytes of a double array (bit-exact comparison).
uint32_t crc_of_doubles(const std::vector<double>& values);

/// Bit pattern of a double as 16 hex digits (exact round trip in text).
std::string hex_bits(double value);

// ------------------------------------------------------------ key=value files

using KeyValues = std::map<std::string, std::string>;

void write_kv(const std::string& path, const KeyValues& kv);
KeyValues read_kv(const std::string& path);

/// Value of `key`; throws when absent.
const std::string& kv_get(const KeyValues& kv, const std::string& key);

// ----------------------------------------------------------------- helpers

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a non-empty sample.
double median(std::vector<double> values);

/// Quantile `q` in [0, 1] by linear interpolation between order
/// statistics; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Removes `path` recursively (if present) and creates it empty.
void fresh_dir(const std::string& path);

/// Peak resident set size of this process since it started or since the
/// last reset_peak_rss(), in MB.
double peak_rss_mb();

/// Restarts the peak-RSS high-water mark at the current RSS (Linux
/// clear_refs; without it the peak stays the process-lifetime one).
void reset_peak_rss();

/// User plus system CPU seconds this process has used so far.
double cpu_seconds();

// ------------------------------------------------------------------- report

/// Everything one `measure` invocation reports: named metrics with units,
/// the operation counts behind failed_frac, and the run fingerprint.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void fingerprint(const std::string& key, const std::string& value);
  void fingerprint(const std::string& key, double value);

  /// One checked operation (a batch job or a served request).
  void attempt(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// The single-line JSON object the Python wrapper parses.
  std::string json(double setup_s) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> fingerprint_;  // JSON values
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few, for the log
};

// -------------------------------------------------------------------- spans

/// Total seconds per span name in an obs::trace_json() document. The
/// traced run arms obs tracing, so these are the benchmark's own spans
/// around layer calls plus the spans ngsx already emits.
std::map<std::string, double> span_totals(const std::string& trace_json);

/// `trace_json` with `metrics_json` (an obs snapshot) embedded under the
/// top-level key "ngsxMetrics".
std::string with_metrics(const std::string& trace_json,
                         const std::string& metrics_json);

}  // namespace perfbench
