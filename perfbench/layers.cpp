// perfbench/layers.cpp — per-layer metric list and the replays of the
// traced run.
//
// The traced run takes most of its split from the obs spans and counters
// ngsx already emits. The replays here cover only the splits no ngsx span
// does (decode vs. encode, SAM parse, partition, target formatting, the
// session's plan vs. format): they call one layer's public functions a
// chunk at a time, single-threaded, inside obs spans of the benchmark's own.

#include <algorithm>

#include "core/partition.h"
#include "core/target.h"
#include "formats/bam.h"
#include "formats/sam.h"
#include "obs/trace.h"
#include "util/binio.h"
#include "workloads.h"

namespace perfbench {

using namespace ngsx;

namespace {

constexpr size_t kChunkRecords = 4096;

/// Reads up to kChunkRecords raw record bodies; returns how many.
size_t read_chunk(bam::BamFileReader& reader, std::vector<std::string>& bodies) {
  size_t n = 0;
  while (n < kChunkRecords && reader.next_raw(bodies[n])) {
    ++n;
  }
  return n;
}

}  // namespace

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"formats.bgzf.inflate_s", "s"},
      {"formats.bgzf.deflate_s", "s"},
      {"formats.bam.frame_s", "s"},
      {"formats.bam.decode_s", "s"},
      {"formats.bamx.encode_s", "s"},
      {"formats.bamx.restride_s", "s"},
      {"formats.sam.parse_s", "s"},
      {"core.preprocess_s", "s"},
      {"core.convert_s", "s"},
      {"core.partition_s", "s"},
      {"core.partition.skew", "ratio"},
      {"core.target.format_s", "s"},
      {"core.collate_s", "s"},
      {"core.session.plan_us", "us"},
      {"core.session.format_us", "us"},
      {"io.write_bytes", "bytes"},
      {"io.write_amp", "ratio"},
      {"io.fsyncs", "count"},
      {"exec.pipeline.transform_s", "s"},
      {"exec.pipeline.commit_wait_s", "s"},
      {"exec.cpu_busy_frac", "ratio"},
      {"serial_frac", "ratio"},
      {"serve.cache.hit_ratio", "ratio"},
      {"serve.coalesced_frac", "ratio"},
      {"serve.wait_ms", "ms"},
      {"serve.queue_depth_p99", "count"},
      {"serve.reject_frac", "ratio"},
      {"serve.view_samples", "count"},
      {"serve.export_samples", "count"},
      {"view_p50_ms", "ms"},
      {"view_p99_ms", "ms"},
      {"view_p99_ms_high", "ms"},
      {"export_p50_ms", "ms"},
      {"export_p90_ms", "ms"},
      {"max_rps", "1/s"},
      {"gen.lag_ms", "ms"},
      {"stats.histogram_s", "s"},
      {"stats.nlmeans_s", "s"},
      {"stats.nlmeans.gops", "Gop/s"},
      {"stats.fdr_s", "s"},
      {"stats.fdr.gops", "Gop/s"},
      {"failed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return kMetrics;
}

void replay_bam_layers(const std::string& bam_path, int target_format) {
  std::vector<std::string> bodies(kChunkRecords);
  std::vector<sam::AlignmentRecord> recs(kChunkRecords);
  std::string out;
  bam::BamFileReader reader(bam_path, 1);
  const sam::SamHeader& header = reader.header();
  while (const size_t n = read_chunk(reader, bodies)) {
    {
      obs::Span s("formats", "bam.decode");
      for (size_t i = 0; i < n; ++i) {
        bam::decode_record(bodies[i], recs[i]);
      }
    }
    if (target_format >= 0) {
      obs::Span s("core", "target.format");
      out.clear();
      for (size_t i = 0; i < n; ++i) {
        core::format_target_record(
            static_cast<core::TargetFormat>(target_format), recs[i], header,
            out);
      }
    }
  }
}

double replay_sam_layers(const std::string& sam_path, int parts,
                         int target_format) {
  sam::SamFileReader head(sam_path);
  const sam::SamHeader& header = head.header();
  InputFile file(sam_path);
  const core::ByteRange body{head.alignment_start_offset(), file.size()};

  std::vector<core::ByteRange> ranges;
  {
    obs::Span s("core", "core.partition");
    ranges = core::partition_sam_forward(file, body, parts);
  }
  uint64_t largest = 0;
  for (const auto& r : ranges) {
    largest = std::max(largest, r.size());
  }
  const double skew = static_cast<double>(largest) * ranges.size() /
                      static_cast<double>(std::max<uint64_t>(1, body.size()));

  std::vector<sam::AlignmentRecord> recs;
  std::string buf, out;
  uint64_t at = body.begin;
  std::string carry;
  while (at < body.end) {
    buf = carry + file.read_at(at, std::min<uint64_t>(4 << 20, body.end - at));
    at += buf.size() - carry.size();
    size_t cut = buf.rfind('\n');
    if (cut == std::string::npos || at >= body.end) {
      cut = buf.size();
    } else {
      ++cut;
    }
    carry = buf.substr(cut);
    std::vector<std::string_view> lines;
    for (size_t pos = 0; pos < cut;) {
      size_t nl = buf.find('\n', pos);
      size_t end = nl == std::string::npos || nl > cut ? cut : nl;
      if (end > pos) {
        lines.emplace_back(buf.data() + pos, end - pos);
      }
      pos = end + 1;
    }
    recs.resize(lines.size());
    {
      obs::Span s("formats", "sam.parse");
      for (size_t i = 0; i < lines.size(); ++i) {
        sam::parse_record(lines[i], header, recs[i]);
      }
    }
    obs::Span s("core", "target.format");
    out.clear();
    for (const auto& rec : recs) {
      core::format_target_record(static_cast<core::TargetFormat>(target_format),
                                 rec, header, out);
    }
  }
  return skew;
}

void replay_session_layers(const core::ConversionSession& session,
                           const core::RecordFetcher& fetcher,
                           const std::vector<Window>& catalog) {
  std::string out;
  for (const auto& w : catalog) {
    std::vector<uint64_t> plan;
    {
      obs::Span s("core", "session.plan");
      plan = session.plan(w.region, baix2::RegionMode::kStartWithin);
    }
    out.clear();
    {
      obs::Span s("core", "session.format");
      session.format_records(plan, core::TargetFormat::kSam, true, out,
                             &fetcher);
    }
    if (w.kind != 'e') {
      continue;
    }
    std::vector<sam::AlignmentRecord> recs(plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
      fetcher.fetch(plan[i], recs[i]);
    }
    out.clear();
    obs::Span s("core", "target.format");
    for (const auto& r : recs) {
      core::format_target_record(core::TargetFormat::kSam, r, session.header(),
                                 out);
    }
  }
}

}  // namespace perfbench
