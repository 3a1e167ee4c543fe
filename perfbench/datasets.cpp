// perfbench/datasets.cpp — seeded inputs and their sequential references.
//
// Generation runs in its own process (the simulator's memory never shows
// in the measuring process's peak RSS) and is never timed. The reference
// digests come from the sequential paths: convert_bam_sequential, a
// sequential SAM reader feeding a target writer, the two-pass
// preprocess_bam feeding a ConversionSession, mark_duplicates at one
// thread, stats::nlmeans and stats::fdr_reference.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <stdexcept>

#include "core/collate.h"
#include "core/convert.h"
#include "core/target.h"
#include "formats/bam.h"
#include "formats/bgzf_parallel.h"
#include "simdata/histsim.h"
#include "simdata/readsim.h"
#include "simdata/reference.h"
#include "stats/fdr.h"
#include "stats/histogram.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace ngsx;

namespace {

/// Writes records as BGZF level-6 BAM on a parallel deflate writer (the
/// generator's own speed-up; the bytes are valid BAM either way).
void write_bam(const std::string& path, const sam::SamHeader& header,
               const std::vector<sam::AlignmentRecord>& records, int threads) {
  bgzf::ParallelWriter out(path, threads, 6);
  std::string buf;
  bam::encode_header(header, buf);
  out.write(buf);
  for (const auto& rec : records) {
    buf.clear();
    bam::encode_record(rec, buf);
    out.write(buf);
  }
  out.close();
}

/// A window of `width` bases placed uniformly (by length) across the
/// references at least `width` long.
core::Region random_window(const sam::SamHeader& header, int32_t width,
                           Rng& rng) {
  const auto& refs = header.references();
  uint64_t total = 0;
  for (const auto& ref : refs) {
    if (ref.length >= width) {
      total += static_cast<uint64_t>(ref.length - width + 1);
    }
  }
  if (total == 0) {
    throw std::runtime_error("genome too small for the window width");
  }
  uint64_t pick = rng.below(total);
  for (size_t i = 0; i < refs.size(); ++i) {
    if (refs[i].length < width) {
      continue;
    }
    uint64_t span = static_cast<uint64_t>(refs[i].length - width + 1);
    if (pick < span) {
      core::Region r;
      r.ref_id = static_cast<int32_t>(i);
      r.begin = static_cast<int32_t>(pick);
      r.end = r.begin + width;
      return r;
    }
    pick -= span;
  }
  throw std::logic_error("window placement fell off the genome");
}

void write_catalog(const std::string& path, const std::vector<Window>& cat) {
  std::ofstream out(path);
  for (const auto& w : cat) {
    out << w.kind << ' ' << w.region.ref_id << ' ' << w.region.begin << ' '
        << w.region.end << ' ' << w.crc << '\n';
  }
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

}  // namespace

std::vector<Window> read_catalog(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<Window> cat;
  Window w;
  while (in >> w.kind >> w.region.ref_id >> w.region.begin >> w.region.end >>
         w.crc) {
    cat.push_back(w);
  }
  return cat;
}

void generate_main(const Options& opts) {
  const std::string dir = opts.str("dir");
  const uint64_t seed = static_cast<uint64_t>(opts.num("seed"));
  const int threads = static_cast<int>(opts.num("threads", 4));
  fs::create_directories(dir);
  const std::string scratch = dir + "/scratch";
  fresh_dir(scratch);

  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(
          static_cast<uint64_t>(opts.num("genome"))),
      seed);
  const sam::SamHeader& header = genome.header();
  KeyValues refs;
  {
    simdata::ReadSimConfig cfg;
    cfg.seed = seed * 2654435761ull + 1;
    auto records = simdata::simulate_alignments(
        genome, static_cast<uint64_t>(opts.num("pairs")), cfg);
    write_bam(dir + "/main.bam", header, records, threads);
    sam::SamFileWriter sam_out(dir + "/main.sam", header);
    for (const auto& rec : records) {
      sam_out.write(rec);
    }
    sam_out.close();
    refs["records"] = std::to_string(records.size());
  }

  // The three references are independent; computing them concurrently
  // only shortens generation.
  // bam_convert: every BED part file concatenated equals the sequential
  // BAM -> BED stream.
  auto bed = std::async(std::launch::async, [&] {
    core::convert_bam_sequential(dir + "/main.bam", scratch + "/ref.bed",
                                 core::TargetFormat::kBed, 1);
    return crc_of_files({scratch + "/ref.bed"});
  });

  // sam_convert: the same for SAM -> FASTQ through a sequential reader.
  auto fastq = std::async(std::launch::async, [&] {
    sam::SamFileReader reader(dir + "/main.sam");
    auto writer = core::make_target_writer(
        core::TargetFormat::kFastq, scratch + "/ref.fastq", reader.header());
    sam::AlignmentRecord rec;
    while (reader.next(rec)) {
      writer->write(rec);
    }
    writer->close();
    return crc_of_files({scratch + "/ref.fastq"});
  });

  // region_serve: the catalogue of view and export windows, each with the
  // digest of the payload a session over the two-pass BAMX produces.
  auto catalog = std::async(std::launch::async, [&] {
    core::preprocess_bam(dir + "/main.bam", scratch + "/ref.bamx",
                         scratch + "/ref.baix", 1);
    core::SessionOptions so;
    so.bamx_path = scratch + "/ref.bamx";
    so.baix_path = scratch + "/ref.baix";
    core::ConversionSession session(so);
    Rng rng(seed ^ 0x5EEDCA7A10Full);
    std::vector<Window> cat;
    auto add = [&](char kind, int64_t count, int32_t width) {
      for (int64_t i = 0; i < count; ++i) {
        Window w;
        w.kind = kind;
        w.region = random_window(header, width, rng);
        std::string payload;
        auto plan = session.plan(w.region, baix2::RegionMode::kStartWithin);
        session.format_records(plan, core::TargetFormat::kSam, true, payload);
        w.crc = crc_of(payload);
        cat.push_back(w);
      }
    };
    add('v', opts.num("views"), static_cast<int32_t>(opts.num("view-bp")));
    add('e', opts.num("exports"),
        static_cast<int32_t>(opts.num("export-bp")));
    write_catalog(dir + "/catalog.txt", cat);
  });
  refs["bed_crc"] = std::to_string(bed.get());
  refs["fastq_crc"] = std::to_string(fastq.get());
  catalog.get();

  refs["bam_bytes"] = std::to_string(fs::file_size(dir + "/main.bam"));
  refs["sam_bytes"] = std::to_string(fs::file_size(dir + "/main.sam"));
  fs::remove_all(scratch);
  write_kv(dir + "/refs.txt", refs);
}

void generate_chip(const Options& opts) {
  const std::string dir = opts.str("dir");
  const uint64_t seed = static_cast<uint64_t>(opts.num("seed"));
  const int threads = static_cast<int>(opts.num("threads", 4));
  const int sims = static_cast<int>(opts.num("sims"));
  fs::create_directories(dir);
  const std::string scratch = dir + "/scratch";
  fresh_dir(scratch);

  auto genome = simdata::ReferenceGenome::simulate(
      simdata::mouse_like_references(
          static_cast<uint64_t>(opts.num("genome"))),
      seed + 101);
  KeyValues refs;
  {
    simdata::ReadSimConfig cfg;
    cfg.seed = seed * 40503ull + 7;
    cfg.duplicate_rate = 0.05;
    auto records = simdata::simulate_alignments(
        genome, static_cast<uint64_t>(opts.num("pairs")), cfg);
    write_bam(dir + "/chip.bam", genome.header(), records, threads);
    refs["records"] = std::to_string(records.size());
  }

  core::CollateOptions co;
  co.decode_threads = 1;
  co.parse_threads = 1;
  co.temp_dir = scratch;
  core::mark_duplicates(dir + "/chip.bam", scratch + "/dedup.bam",
                        core::DuplicateMode::kDrop, co);
  refs["dedup_crc"] = std::to_string(crc_of_files({scratch + "/dedup.bam"}));

  std::vector<double> signal =
      stats::histogram_from_bam(scratch + "/dedup.bam", kBinSize, 1).flatten();
  refs["hist_crc"] = std::to_string(crc_of_doubles(signal));
  refs["bins"] = std::to_string(signal.size());
  refs["nlmeans_crc"] =
      std::to_string(crc_of_doubles(stats::nlmeans(signal, {})));

  double mean = 0.0;
  for (double v : signal) {
    mean += v;
  }
  mean /= static_cast<double>(signal.empty() ? 1 : signal.size());
  auto nulls = simdata::simulate_null_batch(signal.size(),
                                            static_cast<size_t>(sims), mean,
                                            seed + 202);
  {
    std::ofstream out(dir + "/nulls.bin", std::ios::binary);
    uint64_t dims[2] = {nulls.size(), signal.size()};
    out.write(reinterpret_cast<const char*>(dims), sizeof dims);
    for (const auto& row : nulls) {
      out.write(reinterpret_cast<const char*>(row.data()),
                static_cast<std::streamsize>(row.size() * sizeof(double)));
    }
    if (!out) {
      throw std::runtime_error("cannot write nulls.bin");
    }
  }
  const int p_t = sims / 4;
  auto fdr = stats::fdr_reference(signal, nulls, p_t);
  refs["p_t"] = std::to_string(p_t);
  refs["fdr_num"] = hex_bits(fdr.numerator);
  refs["fdr_den"] = hex_bits(fdr.denominator);
  refs["bam_bytes"] = std::to_string(fs::file_size(dir + "/chip.bam"));
  fs::remove_all(scratch);
  write_kv(dir + "/refs.txt", refs);
}

std::vector<std::vector<double>> read_nulls(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t dims[2] = {0, 0};
  in.read(reinterpret_cast<char*>(dims), sizeof dims);
  if (!in || dims[0] > 4096 || dims[1] > (1ull << 28)) {
    throw std::runtime_error("bad null simulation file " + path);
  }
  std::vector<std::vector<double>> nulls(dims[0], std::vector<double>(dims[1]));
  for (auto& row : nulls) {
    in.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row.size() * sizeof(double)));
  }
  if (!in) {
    throw std::runtime_error("truncated null simulation file " + path);
  }
  return nulls;
}

}  // namespace perfbench
