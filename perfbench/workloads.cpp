// perfbench/workloads.cpp — the four workloads and their timed runs.
//
// Batch workloads (bam_convert, sam_convert, chipseq) run one job per
// repetition through ngsx's public entry points, alternating P = nproc
// and P = 1, and check every job's outputs against the sequential
// references. region_serve drives an in-process serve::Server: closed-loop
// bursts give its wall times, and the traced run adds open-loop latency at
// two fixed rates plus a rate ladder.
//
// Timed runs keep obs disarmed. The traced run (--trace 1) repeats the job
// untraced and then with obs metrics and tracing armed, so the overhead of
// the split is itself reported. Spans of the benchmark's own (obs::Span
// around each layer call) cost one relaxed load when disarmed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <thread>

#include "core/collate.h"
#include "core/convert.h"
#include "exec/pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "stats/fdr.h"
#include "stats/histogram.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace ngsx;

namespace {

using LayerValues = std::map<std::string, double>;

/// Open-loop rates of region_serve, frozen at ~30% and ~70% of max_rps
/// (1500-1900 req/s) as first measured on a 4-core AVX2 VM.
constexpr double kLowRps = 500.0;
constexpr double kHighRps = 1200.0;
/// Latency limit on view p99 for the rate ladder: well above unloaded view
/// latency (p99 ~0.4 ms), below one export's service time (~10 ms), so a
/// view stuck behind exports misses it.
constexpr double kViewLimitMs = 5.0;
/// Requests still in flight when a rung's last request is sent, above
/// which the backlog counts as growing.
constexpr size_t kMaxBacklog = 16;
constexpr double kExportShare = 0.02;
constexpr size_t kCacheBytes = 64ull << 20;
constexpr size_t kClosedWindow = 32;

uint64_t tree_bytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

uint32_t ref_crc(const KeyValues& refs, const std::string& key, bool corrupt) {
  auto crc = static_cast<uint32_t>(std::stoul(kv_get(refs, key)));
  return corrupt ? crc ^ 1u : crc;
}

double hist_sum_s(const obs::Snapshot& snap, const char* name) {
  const auto* h = snap.histogram_value(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->sum) / 1e6;
}

/// Arms obs metrics and tracing from empty for the traced section.
void arm_obs() {
  obs::reset_metrics();
  obs::reset_tracing();
  obs::enable_metrics(true);
  obs::enable_tracing(true);
}

/// Disarms obs, keeps the trace (with `snap` embedded) for the trace file
/// and returns the span totals by name.
std::map<std::string, double> disarm_obs(Env& env, const obs::Snapshot& snap) {
  obs::enable_metrics(false);
  obs::enable_tracing(false);
  if (const uint64_t dropped = obs::trace_dropped_count()) {
    throw std::runtime_error("obs trace dropped " + std::to_string(dropped) +
                             " spans; the per-layer totals would be short");
  }
  const std::string trace = obs::trace_json();
  env.trace_json = with_metrics(trace, obs::metrics_json(snap));
  return span_totals(trace);
}

double total(const std::map<std::string, double>& spans, const char* name) {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second;
}

void emit_layers(Env& env, const LayerValues& values) {
  for (const auto& m : layer_metrics()) {
    auto it = values.find(m.name);
    env.report.metric(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

double failed_frac(const Report& r) {
  return r.attempted() == 0 ? 0.0
                            : static_cast<double>(r.failed()) /
                                  static_cast<double>(r.attempted());
}

// ------------------------------------------------------------ batch workloads

class BatchWorkload {
 public:
  explicit BatchWorkload(Env& env)
      : env_(env),
        refs_(read_kv(env.data_dir + "/refs.txt")),
        out_(env.work_dir + "/job") {}
  virtual ~BatchWorkload() = default;
  BatchWorkload(const BatchWorkload&) = delete;
  BatchWorkload& operator=(const BatchWorkload&) = delete;

  /// One job at width `p` into out_.
  virtual void run(int p) = 0;
  /// Compares the last job's outputs with the references; "" when equal.
  virtual std::string check() = 0;
  /// Layer replays of the traced run (run with tracing armed).
  virtual void replay() {}

  uint64_t published_bytes() const { return tree_bytes(out_); }

 protected:
  std::string mismatch(const char* what, uint32_t got, uint32_t want) const {
    return got == want ? "" : std::string(what) + " digest mismatch";
  }

  Env& env_;
  KeyValues refs_;
  std::string out_;
};

class BamConvert final : public BatchWorkload {
 public:
  using BatchWorkload::BatchWorkload;

  void run(int p) override {
    fresh_dir(out_);
    core::PreprocessOptions po;
    po.threads = p;
    po.decode_threads = p;
    po.shards = p;
    {
      obs::Span span("core", "core.preprocess");
      core::preprocess_bam_parallel(bam(), out_ + "/main.bamxm",
                                    out_ + "/main.baix", po);
    }
    core::ConvertOptions co;
    co.format = core::TargetFormat::kBed;
    co.ranks = p;
    co.threads = p;
    co.decode_threads = p;
    fs::create_directories(out_ + "/bed");
    obs::Span span("core", "core.convert");
    last_ = core::convert_bamx(out_ + "/main.bamxm", out_ + "/main.baix",
                               out_ + "/bed", co);
  }

  std::string check() override {
    return mismatch("BED", crc_of_files(last_.outputs),
                    ref_crc(refs_, "bed_crc", env_.corrupt));
  }

  void replay() override {
    replay_bam_layers(bam(), static_cast<int>(core::TargetFormat::kBed));
  }

 private:
  std::string bam() const { return env_.data_dir + "/main.bam"; }
  core::ConvertStats last_;
};

class SamConvert final : public BatchWorkload {
 public:
  using BatchWorkload::BatchWorkload;

  void run(int p) override {
    fresh_dir(out_);
    core::ConvertOptions co;
    co.format = core::TargetFormat::kFastq;
    co.ranks = p;
    co.threads = p;
    co.schedule = core::Schedule::kStatic;
    obs::Span span("core", "core.convert");
    last_ = core::convert_sam(sam(), out_, co);
  }

  std::string check() override {
    return mismatch("FASTQ", crc_of_files(last_.outputs),
                    ref_crc(refs_, "fastq_crc", env_.corrupt));
  }

  void replay() override {
    skew_ = replay_sam_layers(sam(), env_.nproc,
                              static_cast<int>(core::TargetFormat::kFastq));
  }

  double skew() const { return skew_; }

 private:
  std::string sam() const { return env_.data_dir + "/main.sam"; }
  core::ConvertStats last_;
  double skew_ = 0.0;
};

class ChipSeq final : public BatchWorkload {
 public:
  explicit ChipSeq(Env& env)
      : BatchWorkload(env),
        nulls_(read_nulls(env.data_dir + "/nulls.bin")),
        p_t_(std::stoi(kv_get(refs_, "p_t"))) {}

  void run(int p) override {
    fresh_dir(out_);
    core::CollateOptions co;
    co.decode_threads = p;
    co.parse_threads = p;
    co.temp_dir = out_;
    {
      obs::Span span("core", "core.collate");
      core::mark_duplicates(bam(), dedup(), core::DuplicateMode::kDrop, co);
    }
    {
      obs::Span span("stats", "stats.histogram");
      signal_ = stats::histogram_from_bam(dedup(), kBinSize, p).flatten();
    }
    {
      obs::Span span("stats", "stats.nlmeans");
      denoised_ = stats::nlmeans_parallel_pool(signal_, {}, p);
    }
    obs::Span span("stats", "stats.fdr");
    fdr_ = stats::fdr_parallel(signal_, nulls_, p_t_, p);
  }

  std::string check() override {
    const bool c = env_.corrupt;
    std::string err = mismatch("dedup BAM", crc_of_files({dedup()}),
                               ref_crc(refs_, "dedup_crc", c));
    if (err.empty()) {
      err = mismatch("histogram", crc_of_doubles(signal_),
                     ref_crc(refs_, "hist_crc", c));
    }
    if (err.empty()) {
      err = mismatch("NL-means", crc_of_doubles(denoised_),
                     ref_crc(refs_, "nlmeans_crc", c));
    }
    if (err.empty() && (hex_bits(fdr_.numerator) != kv_get(refs_, "fdr_num") ||
                        hex_bits(fdr_.denominator) != kv_get(refs_, "fdr_den"))) {
      err = "FDR differs from fdr_reference";
    }
    return err;
  }

  /// Computed operations of the last job's statistics kernels.
  double nlmeans_ops() const {
    stats::NlMeansParams params;
    return static_cast<double>(signal_.size()) * (2.0 * params.r + 1) *
           (2.0 * params.l + 1);
  }
  double fdr_ops() const {
    const double b = static_cast<double>(nulls_.size());
    return static_cast<double>(signal_.size()) * b * b;
  }

 private:
  std::string bam() const { return env_.data_dir + "/chip.bam"; }
  std::string dedup() const { return out_ + "/dedup.bam"; }

  std::vector<std::vector<double>> nulls_;
  int p_t_;
  std::vector<double> signal_;
  std::vector<double> denoised_;
  stats::FdrResult fdr_;
};

std::unique_ptr<BatchWorkload> make_batch(Env& env) {
  if (env.workload == "bam_convert") {
    return std::make_unique<BamConvert>(env);
  }
  if (env.workload == "sam_convert") {
    return std::make_unique<SamConvert>(env);
  }
  if (env.workload == "chipseq") {
    return std::make_unique<ChipSeq>(env);
  }
  return nullptr;
}

/// Runs one job and checks it; returns its wall seconds, and in `cpu_s`
/// the process CPU seconds of the job alone (the check excluded).
double timed_job(Env& env, BatchWorkload& w, int p, double* cpu_s = nullptr) {
  const double cpu0 = cpu_s != nullptr ? cpu_seconds() : 0.0;
  auto t0 = Clock::now();
  w.run(p);
  double s = seconds_since(t0);
  if (cpu_s != nullptr) {
    *cpu_s = cpu_seconds() - cpu0;
  }
  std::string err = w.check();
  env.report.attempt(err.empty(), env.workload + " P=" + std::to_string(p) +
                                      ": " + err);
  return s;
}

double measure_batch(Env& env, BatchWorkload& w) {
  // Set-up: process start through the first, cold job (checked). The
  // memory footprint is that job's peak, like the fresh set-up processes';
  // later jobs inherit allocator state and drift with the repetition count.
  timed_job(env, w, env.nproc);
  const double setup = seconds_since(env.start);
  const double cold_rss = peak_rss_mb();

  if (!env.trace) {
    std::vector<double> wide, narrow;
    auto t0 = Clock::now();
    while ((seconds_since(t0) < env.seconds || wide.size() < 3) &&
           wide.size() < 500) {
      wide.push_back(timed_job(env, w, env.nproc));
      narrow.push_back(timed_job(env, w, 1));
    }
    env.report.metric("wall_s", median(wide), "s");
    env.report.metric("wall_s_p1", median(narrow), "s");
    env.report.metric("peak_rss_mb", cold_rss, "MB");
    env.report.fingerprint("repetitions", static_cast<double>(wide.size()));
    return setup;
  }

  constexpr int kReps = 3;
  std::vector<double> untraced, traced, narrow;
  for (int i = 0; i < kReps; ++i) {
    untraced.push_back(timed_job(env, w, env.nproc));
  }
  for (int i = 0; i < 2; ++i) {
    narrow.push_back(timed_job(env, w, 1));
  }
  arm_obs();
  double published = 0.0;
  double cpu = 0.0;
  for (int i = 0; i < kReps; ++i) {
    double job_cpu = 0.0;
    traced.push_back(timed_job(env, w, env.nproc, &job_cpu));
    cpu += job_cpu;
    published += static_cast<double>(w.published_bytes());
  }
  const obs::Snapshot snap = obs::snapshot();
  obs::enable_metrics(false);
  w.replay();
  const auto spans = disarm_obs(env, snap);

  // Job spans are summed over kReps jobs; replay spans cover one pass.
  LayerValues v;
  const double reps = kReps;
  const double frame_s = total(spans, "preprocess.frame") / reps;
  v["formats.bgzf.inflate_s"] = hist_sum_s(snap, "bgzf.decode.inflate_us") / reps;
  v["formats.bgzf.deflate_s"] = hist_sum_s(snap, "bgzf.encode.deflate_us") / reps;
  v["formats.bam.frame_s"] = frame_s;
  v["formats.bam.decode_s"] = total(spans, "bam.decode");
  v["formats.bamx.encode_s"] = total(spans, "preprocess.encode") / reps;
  v["formats.bamx.restride_s"] = total(spans, "preprocess.restride") / reps;
  v["formats.sam.parse_s"] = total(spans, "sam.parse");
  v["core.preprocess_s"] = total(spans, "core.preprocess") / reps;
  v["core.convert_s"] = total(spans, "core.convert") / reps;
  v["core.partition_s"] = total(spans, "core.partition");
  v["core.target.format_s"] = total(spans, "target.format");
  v["core.collate_s"] = total(spans, "core.collate") / reps;
  if (auto* sc = dynamic_cast<SamConvert*>(&w)) {
    v["core.partition.skew"] = sc->skew();
  }
  const double written =
      static_cast<double>(snap.counter_value("io.binio.write_bytes"));
  v["io.write_bytes"] = written / reps;
  v["io.write_amp"] = published > 0.0 ? written / published : 0.0;
  v["io.fsyncs"] =
      static_cast<double>(snap.counter_value("io.binio.fsyncs")) / reps;
  v["exec.pipeline.transform_s"] =
      hist_sum_s(snap, "exec.pipeline.transform_us") / reps;
  v["exec.pipeline.commit_wait_s"] =
      hist_sum_s(snap, "exec.pipeline.commit_wait_us") / reps;
  double traced_total = 0.0;
  for (double t : traced) {
    traced_total += t;
  }
  v["exec.cpu_busy_frac"] = cpu / (traced_total * env.nproc);
  v["serial_frac"] = frame_s / median(narrow);
  if (auto* chip = dynamic_cast<ChipSeq*>(&w)) {
    const double nl = total(spans, "stats.nlmeans") / reps;
    const double fdr = total(spans, "stats.fdr") / reps;
    v["stats.histogram_s"] = total(spans, "stats.histogram") / reps;
    v["stats.nlmeans_s"] = nl;
    v["stats.nlmeans.gops"] = chip->nlmeans_ops() / nl / 1e9;
    v["stats.fdr_s"] = fdr;
    v["stats.fdr.gops"] = chip->fdr_ops() / fdr / 1e9;
  }
  v["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0;
  v["failed_frac"] = failed_frac(env.report);
  emit_layers(env, v);
  return setup;
}

// ------------------------------------------------------------- region_serve

/// preprocess + session open + BAIX load: the daemon's cold start.
std::unique_ptr<core::ConversionSession> open_serving(Env& env) {
  const std::string dir = env.work_dir + "/serve";
  fresh_dir(dir);
  core::PreprocessOptions po;
  po.threads = env.nproc;
  po.decode_threads = env.nproc;
  po.shards = env.nproc;
  core::preprocess_bam_parallel(env.data_dir + "/main.bam",
                                dir + "/serve.bamxm", dir + "/serve.baix", po);
  core::SessionOptions so;
  so.bamx_path = dir + "/serve.bamxm";
  so.baix_path = dir + "/serve.baix";
  auto session = std::make_unique<core::ConversionSession>(so);
  session->baix();
  return session;
}

struct Outcome {
  size_t window = 0;
  double latency_ms = 0.0;  // from the request's due time
  bool ok = false;
  bool rejected = false;
  bool coalesced = false;
};

struct LoadResult {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;
  std::vector<double> lag_ms;     // open loop: how late each send ran
  std::vector<double> depth;      // open loop: sampled scheduler queue depth
  size_t backlog_at_last_send = 0;
};

/// The request mix: views Zipf-skewed over the view catalogue, exports
/// uniform over the export catalogue.
class Mix {
 public:
  explicit Mix(const std::vector<Window>& cat) {
    for (size_t i = 0; i < cat.size(); ++i) {
      (cat[i].kind == 'e' ? exports_ : views_).push_back(i);
    }
    double sum = 0.0;
    for (size_t k = 0; k < views_.size(); ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }

  size_t view(Rng& rng) const {
    size_t k = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform()) -
        cdf_.begin());
    return views_[std::min(k, views_.size() - 1)];
  }
  /// Exactly round(n * kExportShare) exports among n requests, shuffled.
  /// The exports are distinct windows while the catalogue has enough, so
  /// how much export work the list carries does not depend on the seed.
  std::vector<size_t> burst(size_t n, Rng& rng) const {
    const auto n_exp = static_cast<size_t>(std::lround(n * kExportShare));
    std::vector<size_t> exports = exports_;
    for (size_t i = exports.size(); i > 1; --i) {
      std::swap(exports[i - 1], exports[rng.below(i)]);
    }
    std::vector<size_t> order;
    for (size_t i = 0; i < n; ++i) {
      order.push_back(i < n_exp ? exports[i % exports.size()] : view(rng));
    }
    for (size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    return order;
  }

 private:
  std::vector<size_t> views_;
  std::vector<size_t> exports_;
  std::vector<double> cdf_;
};

/// Sends `order` to `server` — closed loop with `window` requests in
/// flight when `due` is null, else open loop at the given offsets (s) —
/// and checks every payload against the catalogue digest. With `count`,
/// each request counts as one attempted operation of the run.
LoadResult drive(Env& env, serve::Server& server,
                 const std::vector<Window>& cat,
                 const std::vector<size_t>& order,
                 const std::vector<double>* due, size_t window, bool count) {
  struct InFlight {
    size_t req;
    Clock::time_point due;
    std::future<serve::ServeResult> fut;
  };
  LoadResult out;
  std::vector<InFlight> inflight;
  const auto t0 = Clock::now();
  auto next_sample = t0;
  size_t next = 0;
  while (out.outcomes.size() < order.size()) {
    const auto now = Clock::now();
    if (next < order.size()) {
      const bool send =
          due == nullptr
              ? inflight.size() < window
              : now >= t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>((*due)[next]));
      if (send) {
        Clock::time_point due_at = now;
        if (due != nullptr) {
          due_at = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>((*due)[next]));
          out.lag_ms.push_back(
              std::chrono::duration<double, std::milli>(now - due_at).count());
        }
        serve::ServeRequest req;
        req.region = cat[order[next]].region;
        req.format = core::TargetFormat::kSam;
        inflight.push_back(
            {next, due_at, server.scheduler().submit_async(req)});
        if (++next == order.size()) {
          out.backlog_at_last_send = inflight.size();
        }
        continue;
      }
    }
    if (due != nullptr && now >= next_sample) {
      out.depth.push_back(static_cast<double>(server.scheduler().queued()));
      next_sample = now + std::chrono::milliseconds(1);
    }
    bool progressed = false;
    for (size_t i = 0; i < inflight.size();) {
      if (inflight[i].fut.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const auto done = Clock::now();
      serve::ServeResult r = inflight[i].fut.get();
      const Window& w = cat[order[inflight[i].req]];
      Outcome o;
      o.window = order[inflight[i].req];
      o.latency_ms =
          std::chrono::duration<double, std::milli>(done - inflight[i].due)
              .count();
      o.rejected = !r.ok;
      o.coalesced = r.coalesced;
      const uint32_t want = env.corrupt ? w.crc ^ 1u : w.crc;
      const bool payload_ok = r.ok && crc_of(r.payload) == want;
      o.ok = payload_ok;
      if (count) {
        env.report.attempt(payload_ok,
                           r.ok ? "payload digest mismatch" : r.error);
      } else if (r.ok && !payload_ok) {
        env.report.attempt(false, "payload digest mismatch");
      }
      out.outcomes.push_back(o);
      inflight[i] = std::move(inflight.back());
      inflight.pop_back();
      progressed = true;
    }
    if (progressed) {
      continue;
    }
    if (due == nullptr && !inflight.empty()) {
      // Closed loop with nothing to send: sleep on a request rather than
      // spin, so the generator takes no CPU time from the workers.
      inflight.front().fut.wait_for(std::chrono::microseconds(100));
    } else if (next >= order.size()) {
      std::this_thread::yield();
    }
  }
  out.wall_s = seconds_since(t0);
  return out;
}

/// Poisson arrival offsets (s) of n requests at `rps`.
std::vector<double> poisson_due(size_t n, double rps, Rng& rng) {
  std::vector<double> due;
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    due.push_back(t);
    t += -std::log(1.0 - rng.uniform()) / rps;
  }
  return due;
}

struct ClassLatency {
  std::vector<double> view, exp;
  size_t failed = 0;    // rejected or wrong payload
  size_t rejected = 0;  // refused by the scheduler (admission, deadline)
  size_t coalesced = 0;
};

ClassLatency split(const LoadResult& r, const std::vector<Window>& cat) {
  ClassLatency c;
  for (const auto& o : r.outcomes) {
    (cat[o.window].kind == 'e' ? c.exp : c.view).push_back(o.latency_ms);
    c.failed += o.ok ? 0 : 1;
    c.rejected += o.rejected ? 1 : 0;
    c.coalesced += o.coalesced ? 1 : 0;
  }
  return c;
}

double measure_serve(Env& env) {
  auto session = open_serving(env);
  const double setup = seconds_since(env.start);

  const auto cat = read_catalog(env.data_dir + "/catalog.txt");
  const Mix mix(cat);
  Rng rng(env.seed * 7919 + 13);
  auto scaled = [&](double n) {
    return static_cast<size_t>(std::max(10.0, std::round(n * env.serve_scale)));
  };
  // P = nproc: nproc - 1 workers (the generator has the last core).
  // P = 1: the same server over one worker. Each has its own block cache.
  serve::ServerOptions server_options;
  server_options.cache_bytes = kCacheBytes;
  exec::Pool pool(std::max(1, env.nproc - 1));
  serve::Server server(*session, pool, server_options);
  exec::Pool narrow_pool(1);
  serve::Server narrow(*session, narrow_pool, server_options);
  const auto burst = mix.burst(scaled(1200), rng);

  // One burst with kClosedWindow requests in flight.
  auto run_burst = [&](serve::Server& s) {
    return drive(env, s, cat, burst, nullptr, kClosedWindow, true).wall_s;
  };

  // Untimed warm-up: the whole catalogue once, then one burst per server.
  std::vector<size_t> all(cat.size());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  for (serve::Server* s : {&server, &narrow}) {
    drive(env, *s, cat, all, nullptr, kClosedWindow, true);
    run_burst(*s);
  }

  if (!env.trace) {
    std::vector<double> w, n, rss;
    auto t0 = Clock::now();
    while ((seconds_since(t0) < env.seconds || w.size() < 3) && w.size() < 500) {
      reset_peak_rss();
      w.push_back(run_burst(server));
      rss.push_back(peak_rss_mb());
      n.push_back(run_burst(narrow));
    }
    env.report.metric("wall_s", median(w), "s");
    env.report.metric("wall_s_p1", median(n), "s");
    env.report.metric("peak_rss_mb", median(rss), "MB");
    env.report.fingerprint("repetitions", static_cast<double>(w.size()));
    return setup;
  }

  LayerValues v;
  std::vector<double> untraced, traced;
  for (int i = 0; i < 3; ++i) {
    untraced.push_back(run_burst(server));
  }
  arm_obs();
  for (int i = 0; i < 3; ++i) {
    traced.push_back(run_burst(server));
  }
  const obs::Snapshot snap = obs::snapshot();
  obs::enable_metrics(false);
  obs::enable_tracing(false);
  v["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0;

  // Standalone service time: one view at a time.
  std::vector<size_t> solo;
  for (size_t i = 0; i < scaled(300); ++i) {
    solo.push_back(mix.view(rng));
  }
  auto alone = split(drive(env, server, cat, solo, nullptr, 1, true), cat);

  auto open_loop = [&](size_t n, double rps, bool count) {
    const auto order = mix.burst(n, rng);
    const auto due = poisson_due(n, rps, rng);
    return drive(env, server, cat, order, &due, 0, count);
  };

  // Low rate: 100 exports, so export p90 has 10 samples beyond it.
  auto low = open_loop(scaled(5000), kLowRps, true);
  auto low_c = split(low, cat);
  v["view_p50_ms"] = quantile(low_c.view, 0.5);
  v["view_p99_ms"] = quantile(low_c.view, 0.99);
  v["export_p50_ms"] = quantile(low_c.exp, 0.5);
  v["export_p90_ms"] = quantile(low_c.exp, 0.9);
  v["serve.view_samples"] = static_cast<double>(low_c.view.size());
  v["serve.export_samples"] = static_cast<double>(low_c.exp.size());

  const auto before = server.cache()->stats();
  auto high = open_loop(scaled(2000), kHighRps, true);
  const auto after = server.cache()->stats();
  auto high_c = split(high, cat);
  v["view_p99_ms_high"] = quantile(high_c.view, 0.99);
  v["serve.wait_ms"] = quantile(high_c.view, 0.5) - quantile(alone.view, 0.5);
  v["serve.queue_depth_p99"] = quantile(high.depth, 0.99);
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  v["serve.cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  v["serve.coalesced_frac"] = static_cast<double>(high_c.coalesced) /
                              static_cast<double>(high.outcomes.size());
  v["serve.reject_frac"] =
      static_cast<double>(low_c.rejected + high_c.rejected) /
      static_cast<double>(low.outcomes.size() + high.outcomes.size());
  std::vector<double> lag = low.lag_ms;
  lag.insert(lag.end(), high.lag_ms.begin(), high.lag_ms.end());
  v["gen.lag_ms"] = quantile(lag, 0.99);

  // Rate ladder: the highest rate meeting the view p99 limit with no
  // failure and no backlog left when the last request is sent. Rejects
  // past capacity are the ladder's signal, not failures of the run.
  double max_rps = 0.0;
  for (double rps = 400.0; rps <= 40000.0; rps *= 1.25) {
    auto load = open_loop(scaled(1000), rps, false);
    auto rung = split(load, cat);
    std::fprintf(stderr,
                 "ladder %.0f req/s: view p50 %.3f ms p99 %.3f ms, %zu failed, "
                 "backlog %zu\n",
                 rps, quantile(rung.view, 0.5), quantile(rung.view, 0.99),
                 rung.failed, load.backlog_at_last_send);
    if (rung.failed > 0 || quantile(rung.view, 0.99) > kViewLimitMs ||
        load.backlog_at_last_send > kMaxBacklog) {
      break;
    }
    max_rps = rps;
  }
  v["max_rps"] = max_rps;

  // Latency runs above are untraced; the replay joins the traced bursts.
  obs::enable_tracing(true);
  const serve::CachedFetcher fetcher(session->source(), *narrow.cache());
  replay_session_layers(*session, fetcher, cat);
  const auto spans = disarm_obs(env, snap);
  v["core.session.plan_us"] =
      total(spans, "session.plan") * 1e6 / static_cast<double>(cat.size());
  v["core.session.format_us"] =
      total(spans, "session.format") * 1e6 / static_cast<double>(cat.size());
  v["core.target.format_s"] = total(spans, "target.format");
  v["failed_frac"] = failed_frac(env.report);
  emit_layers(env, v);
  return setup;
}

}  // namespace

SetupResult run_setup(Env& env) {
  SetupResult r;
  if (env.workload == "region_serve") {
    open_serving(env);
    r.seconds = seconds_since(env.start);
    return r;
  }
  auto w = make_batch(env);
  if (!w) {
    throw std::runtime_error("unknown workload " + env.workload);
  }
  timed_job(env, *w, env.nproc);
  r.seconds = seconds_since(env.start);
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

double run_measure(Env& env) {
  if (env.workload == "region_serve") {
    return measure_serve(env);
  }
  auto w = make_batch(env);
  if (!w) {
    throw std::runtime_error("unknown workload " + env.workload);
  }
  return measure_batch(env, *w);
}

}  // namespace perfbench
