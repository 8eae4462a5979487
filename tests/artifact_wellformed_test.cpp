// Every JSON artifact this repo emits must be machine-readable: telemetry
// records, registry snapshots, trace files, and whatever already sits under
// results/ (bench artifacts from earlier runs in this build tree).  Backed
// by util::json_validate, so a malformed emitter fails here long before an
// external plotting script chokes on it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/online_game.hpp"
#include "core/telemetry.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace {

using namespace mldist;

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(Artifacts, PhaseTelemetryJson) {
  core::PhaseTelemetry tel;
  tel.seconds = 1.5;
  tel.queries = 1200;
  tel.rows = 800;
  tel.threads = 4;
  std::string error;
  EXPECT_TRUE(util::json_validate(tel.to_json(), &error)) << error;
}

TEST(Artifacts, RobustnessTelemetryJson) {
  core::RobustnessTelemetry rob;
  rob.attempts = 3;
  rob.divergences = 2;
  rob.rollbacks = 2;
  rob.degraded_to_baseline = true;
  rob.last_fault = "loss became NaN\nwith a \"quoted\" detail";
  std::string error;
  EXPECT_TRUE(util::json_validate(rob.to_json(), &error)) << error;
}

TEST(Artifacts, MetricsSnapshotJsonWithEveryKind) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.add(reg.counter("artifact_test.counter"), 3);
  reg.set_gauge(reg.gauge("artifact_test.gauge"), 11);
  const obs::MetricId h = reg.histogram("artifact_test.hist_ns");
  reg.observe(h, 0);
  reg.observe(h, 123456789);
  std::string error;
  const std::string json = reg.snapshot().to_json();
  EXPECT_TRUE(util::json_validate(json, &error)) << error << "\n" << json;
}

TEST(Artifacts, TraceFileIsWellFormed) {
  const auto path = std::filesystem::temp_directory_path() /
                    "mldist_artifact_trace.json";
  std::filesystem::remove(path);
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(path.string());
  {
    obs::Span span("artifact.span", "test");
    span.arg("note", "quotes \" and backslashes \\ and\nnewlines");
  }
  std::string error;
  ASSERT_TRUE(tracer.flush(&error)) << error;
  tracer.disable();
  EXPECT_TRUE(util::json_validate(read_file(path), &error)) << error;
  std::filesystem::remove(path);
}

TEST(Artifacts, TraceFileEmbedsRunManifest) {
  // Every trace file must be attributable to the run that produced it:
  // otherData carries the full RunManifest (run id, config hash, git,
  // kernel, build), same block that heads every results/ JSON.
  const auto path = std::filesystem::temp_directory_path() /
                    "mldist_artifact_trace_manifest.json";
  std::filesystem::remove(path);
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(path.string());
  { obs::Span span("artifact.manifest_span", "test"); }
  std::string error;
  ASSERT_TRUE(tracer.flush(&error)) << error;
  tracer.disable();
  const std::string text = read_file(path);
  EXPECT_NE(text.find("\"manifest\":{"), std::string::npos);
  EXPECT_NE(text.find("\"run_id\""), std::string::npos);
  EXPECT_NE(text.find("\"config_hash\""), std::string::npos);
  EXPECT_NE(text.find("\"git\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Artifacts, ExistingResultsDirectoryValidates) {
  // Bench artifacts accumulated in this build tree (results/*.json written
  // through util::write_json_file).  An empty or absent directory passes
  // trivially; any file that exists must parse.
  const std::filesystem::path dir = "results";
  if (!std::filesystem::exists(dir)) {
    GTEST_SKIP() << "no results/ directory in the working directory";
  }
  int checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".json") {
      continue;
    }
    std::string error;
    const std::string text = read_file(entry.path());
    EXPECT_TRUE(util::json_validate(text, &error))
        << entry.path() << ": " << error;
    // Bench artifacts written through write_bench_json must carry the run
    // manifest so they are attributable (ISSUE: every results/ JSON embeds
    // a manifest block).
    if (entry.path().filename().string().rfind("BENCH_", 0) == 0) {
      EXPECT_NE(text.find("\"manifest\":{"), std::string::npos)
          << entry.path() << " lacks a manifest block";
    }
    ++checked;
  }
  std::printf("validated %d results/*.json artifact(s)\n", checked);
}

}  // namespace
