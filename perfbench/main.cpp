// perfbench/main.cpp — command-line entry of the benchmark harness.
//
//   perfbench gen-main --dir D --seed N --pairs N --genome BP --views N
//                      --exports N --view-bp BP --export-bp BP
//   perfbench gen-chip --dir D --seed N --pairs N --genome BP --sims B
//   perfbench setup    --workload W --data D --work D
//   perfbench measure  --workload W --data D --work D --seconds S
//                      --trace 0|1 --seed N [--corrupt 1] [--trace-out F]
//                      [--serve-scale X]
//
// `setup` prints {"setup_s": x[, "peak_rss_mb": y]}; `measure` prints one JSON object with
// the metrics, the attempted/failed counts and the run fingerprint.
// perfbench/run.py builds this binary, caches the datasets and turns the
// output into the benchmark's result line.

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "exec/pool.h"
#include "formats/bgzf_codec.h"
#include "util/simd.h"
#include "workloads.h"

namespace {

using namespace perfbench;

void fingerprint(Env& env) {
  namespace bgzf = ngsx::bgzf;
  Report& r = env.report;
  r.fingerprint("workload", env.workload);
  r.fingerprint("nproc", static_cast<double>(env.nproc));
  r.fingerprint("simd", ngsx::simd::level_name(ngsx::simd::active_level()));
  r.fingerprint("bgzf_backend",
                bgzf::backend_name(bgzf::resolve_backend(bgzf::Backend::kAuto)));
  r.fingerprint("libdeflate",
                bgzf::backend_available(bgzf::Backend::kLibdeflate) ? "yes"
                                                                     : "no");
  r.fingerprint("compiler", PERFBENCH_COMPILER);
  r.fingerprint("build_type", PERFBENCH_BUILD_TYPE);
  r.fingerprint("seconds", env.seconds);
  for (const auto& [key, value] : read_kv(env.data_dir + "/refs.txt")) {
    if (key == "records" || key == "bins" || key.find("bytes") != std::string::npos) {
      r.fingerprint("data." + key, std::stod(value));
    }
  }
}

Env make_env(const Options& opts) {
  Env env;
  env.workload = opts.str("workload");
  env.data_dir = opts.str("data");
  env.work_dir = opts.str("work");
  env.nproc = ngsx::exec::hardware_threads();
  env.seconds = opts.real("seconds", 10.0);
  env.serve_scale = opts.real("serve-scale", 1.0);
  env.trace = opts.num("trace", 0) != 0;
  env.corrupt = opts.num("corrupt", 0) != 0;
  env.seed = static_cast<uint64_t>(opts.num("seed", 1));
  env.trace_path = opts.str("trace-out", "");
  return env;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench gen-main|gen-chip|setup|measure "
                         "--key value ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  const Options opts(argc, argv, 2);
  if (mode == "gen-main") {
    generate_main(opts);
    return 0;
  }
  if (mode == "gen-chip") {
    generate_chip(opts);
    return 0;
  }
  Env env = make_env(opts);
  fresh_dir(env.work_dir);
  if (mode == "setup") {
    const SetupResult r = run_setup(env);
    if (r.peak_rss_mb > 0.0) {
      std::printf("{\"setup_s\": %.17g, \"peak_rss_mb\": %.17g}\n",
                  r.seconds, r.peak_rss_mb);
    } else {
      std::printf("{\"setup_s\": %.17g}\n", r.seconds);
    }
    return 0;
  }
  if (mode != "measure") {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  const double setup = run_measure(env);
  fingerprint(env);
  if (env.trace && !env.trace_path.empty()) {
    std::ofstream(env.trace_path) << env.trace_json << "\n";
  }
  std::printf("%s\n", env.report.json(setup).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
