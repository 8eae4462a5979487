// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload gimli-hash|gimli-cipher --seed N --seconds S
//             --trace 0|1 --out DIR
//   perfbench --self-test --out DIR
//
// Prints one JSON object as its last stdout line (see common.hpp
// result_json); run.py builds this binary and turns that line into the
// benchmark's result.  Exits 1 when an output check failed, 2 on usage
// errors and on builds whose numbers would not count.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "campaign/worker.hpp"
#include "common.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "stages.hpp"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// Numbers from sanitizer or non-Release builds (of this binary or of the
/// program libraries it links) are not recorded.  The repository's Release
/// flags are "-O3" without -DNDEBUG, so assertions are not a criterion.
bool release_build(std::string* why) {
  const std::string libs = mldist::obs::RunManifest::current().build_flags;
  if (kSanitized) {
    *why = "sanitizer build";
    return false;
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    *why = std::string("build type ") + PERFBENCH_BUILD_TYPE;
    return false;
  }
  if (libs.rfind("Release ", 0) != 0) {
    *why = "program libraries built as " + libs;
    return false;
  }
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload gimli-hash|gimli-cipher --seed N "
               "--seconds S --trace 0|1 --out DIR\n"
               "       perfbench --self-test --out DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The campaign supervisor execs this binary as its workers.
  if (const int rc = mldist::campaign::worker_entry(argc, argv); rc >= 0) {
    return rc;
  }

  perfbench::Args args;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      self_test = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out" && has_value) {
      args.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (args.out_dir.empty() || !(args.seconds > 0.0) ||
      (!self_test && perfbench::workload_target(args.workload).empty())) {
    return usage();
  }

  std::string why;
  if (!release_build(&why)) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why.c_str());
    return 2;
  }

  std::filesystem::create_directories(args.out_dir);
  // One file sink at a fixed level for this process and the campaign
  // workers it execs (they read the environment), so the daemon's
  // serve.access lines and worker diagnostics stay off the terminal.
  const std::string log = args.out_dir + "/perfbench.log.jsonl";
  std::filesystem::remove(log);  // the sink appends; keep one run's lines
  ::setenv("MLDIST_LOG_FILE", log.c_str(), 1);
  ::setenv("MLDIST_LOG_LEVEL", "info", 1);
  ::unsetenv("MLDIST_TRACE");
  mldist::obs::Logger::global().set_level(mldist::obs::LogLevel::kInfo);
  mldist::obs::Logger::global().set_file(log);

  if (self_test) {
    const int failures = perfbench::self_test(args.out_dir);
    std::printf("self-test: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }

  perfbench::Result result;
  try {
    perfbench::warm_cpus(2.0);
    result = perfbench::run_session(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  mldist::obs::Logger::global().flush();
  std::printf("%s\n", perfbench::result_json(args, result).c_str());
  return result.mismatches.empty() ? 0 : 1;
}
