// perfbench/workloads.h
//
// Datasets, workloads and the per-layer replays of the benchmark.
//
// A dataset directory holds the generated inputs plus `refs.txt`, the
// digests of the outputs the *sequential* code paths produce for them.
// The measuring process only reads that directory; every output it
// produces goes to a work directory and is checked against refs.txt.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/session.h"
#include "perfbench.h"
#include "stats/nlmeans.h"

namespace perfbench {

// ----------------------------------------------------------------- datasets

/// Coverage bin width of the ChIP-seq histogram (the paper's 25 bp).
constexpr int kBinSize = 25;

/// One region of the serving catalogue with its reference payload digest.
struct Window {
  char kind = 'v';  // 'v' view, 'e' export
  ngsx::core::Region region;
  uint32_t crc = 0;  // CRC-32 of the SAM payload (header + records)
};

std::vector<Window> read_catalog(const std::string& path);

/// `gen-main`: one simulated coordinate-sorted record set written as
/// main.bam and main.sam, plus the sequential references for the
/// bam_convert, sam_convert and region_serve workloads.
void generate_main(const Options& opts);

/// `gen-chip`: a smaller BAM plus B null simulations and the sequential
/// references of the chipseq workload.
void generate_chip(const Options& opts);

/// Reads the B x M null simulations written by generate_chip.
std::vector<std::vector<double>> read_nulls(const std::string& path);

// ---------------------------------------------------------------- workloads

/// Everything a `setup` or `measure` invocation needs.
struct Env {
  std::string workload;
  std::string data_dir;  // generated inputs (read only)
  std::string work_dir;  // outputs of this process
  std::string trace_path;
  int nproc = 1;
  double seconds = 10.0;
  double serve_scale = 1.0;  // scales region_serve's request counts
  bool trace = false;
  bool corrupt = false;  // self-test: expect wrong reference digests
  uint64_t seed = 1;
  Clock::time_point start = Clock::now();
  Report report;
  /// Traced run: the obs trace of the traced jobs and replays, with the
  /// obs metrics snapshot of the traced jobs embedded.
  std::string trace_json;
};

/// One cold start of a workload in a fresh process.
struct SetupResult {
  double seconds = 0.0;
  /// Peak RSS when the set-up is the workload's whole job (the batch
  /// workloads), else 0: region_serve's footprint comes from serving.
  double peak_rss_mb = 0.0;
};

SetupResult run_setup(Env& env);

/// Runs the workload for env.seconds and fills env.report. Returns the
/// process's own set-up time.
double run_measure(Env& env);

// -------------------------------------------------------- per-layer replays
//
// Single-thread replays of the splits no ngsx span covers. Each calls one
// layer's public functions a chunk at a time over the workload's input,
// inside obs spans of the benchmark's own; run them with tracing armed.

/// Record decode (bam.decode) and, when `target_format` >= 0, formatting
/// of every record as that core::TargetFormat (target.format).
void replay_bam_layers(const std::string& bam_path, int target_format);

/// The SAM text path: Algorithm-1 partitioning into `parts` ranges
/// (core.partition), line parsing (sam.parse) and target formatting
/// (target.format). Returns max/mean partition bytes.
double replay_sam_layers(const std::string& sam_path, int parts,
                         int target_format);

/// The serving session over the catalogue: plan and format per window
/// (session.plan / session.format), and the target formatting of the
/// export payloads alone (target.format). Records come through `fetcher`
/// (a block cache, as the server reads them).
void replay_session_layers(const ngsx::core::ConversionSession& session,
                           const ngsx::core::RecordFetcher& fetcher,
                           const std::vector<Window>& catalog);

/// Per-layer metric names and units, in report order. Every traced run
/// reports all of them; a layer a workload does not exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

}  // namespace perfbench
