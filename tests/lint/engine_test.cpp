#include "lint/engine.hpp"

#include <gtest/gtest.h>

#include "gwas/workflow.hpp"
#include "lint_test_util.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace ff::lint {
namespace {

TEST(DetectKind, RecognizesEveryArtifactShape) {
  EXPECT_EQ(detect_kind(Json::parse(R"({"$model-schema": "x"})")),
            ArtifactKind::SkelModel);
  EXPECT_EQ(detect_kind(Json::parse(R"({"app": {}, "groups": []})")),
            ArtifactKind::CampaignManifest);
  EXPECT_EQ(detect_kind(Json::parse(R"({"queues": []})")),
            ArtifactKind::StreamPlane);
  EXPECT_EQ(detect_kind(Json::parse(R"({"components": [], "schemas": []})")),
            ArtifactKind::Catalog);
  EXPECT_EQ(detect_kind(Json::parse(R"({"anything": "else"})")),
            ArtifactKind::Unknown);
}

TEST(LintEngine, ParseFailureIsFF001AtTheFailurePoint) {
  const LintReport report = lint_fixture("bad_syntax.json");
  expect_findings(report, {{"FF001", 4, 1, Severity::Error}});
}

TEST(LintEngine, UnreadableDirectoryIsFF001) {
  // A directory passed as a file cannot be read; it is not an empty file.
  TempDir dir;
  const LintEngine engine;
  const LintReport report = engine.lint_file(dir.str());
  ASSERT_EQ(report.diagnostics().size(), 1u) << report.render_text();
  EXPECT_EQ(report.diagnostics()[0].code, "FF001");
  EXPECT_NE(report.diagnostics()[0].message.find("cannot read file"),
            std::string::npos);
}

TEST(LintEngine, UnknownArtifactKindIsOnlyANote) {
  const LintReport report = lint_fixture("unknown_kind.json");
  expect_findings(report, {{"FF002", 1, 1, Severity::Note}});
  EXPECT_FALSE(report.has_errors());
}

TEST(LintEngine, LintPathsWalksDirectoriesRecursively) {
  LintEngine engine;
  engine.register_model(
      {"gwas-paste", gwas::paste_model_schema(), gwas::make_paste_generator()});
  LintReport report = engine.lint_paths({fixture_path("")});
  // The fixture directory's full golden sweep: all nine files.
  EXPECT_EQ(report.count(Severity::Error), 16u) << report.render_text();
  EXPECT_EQ(report.count(Severity::Warning), 9u) << report.render_text();
  EXPECT_EQ(report.count(Severity::Note), 1u) << report.render_text();
}

TEST(LintEngine, JournalPicksUpSiblingManifestAutomatically) {
  TempDir dir("lintengine");
  // The cheetah .campaign/ layout: manifest.json next to journal.jsonl.
  // The journal names a campaign the manifest doesn't → FF205 only fires
  // if the sibling manifest was actually discovered and used.
  write_file(dir.file("manifest.json"), R"({
    "name": "real-campaign",
    "app": {"name": "a", "executable": "e", "args_template": ""},
    "groups": []
  })");
  write_file(dir.file("journal.jsonl"),
             "{\"kind\":\"header\",\"schema\":2,\"campaign\":\"impostor\","
             "\"runs\":[]}\n");
  const LintEngine engine;
  const LintReport report = engine.lint_file(dir.file("journal.jsonl"));
  ASSERT_FALSE(report.empty()) << report.render_text();
  bool saw_drift = false;
  for (const Diagnostic& diag : report.diagnostics()) {
    if (diag.code == "FF205" &&
        diag.message.find("impostor") != std::string::npos) {
      saw_drift = true;
    }
  }
  EXPECT_TRUE(saw_drift) << report.render_text();
}

TEST(LintEngine, JournalWithoutSiblingManifestSkipsDriftChecks) {
  TempDir dir("lintengine");
  write_file(dir.file("journal.jsonl"),
             "{\"kind\":\"header\",\"schema\":2,\"campaign\":\"solo\","
             "\"runs\":[]}\n");
  const LintEngine engine;
  const LintReport report = engine.lint_file(dir.file("journal.jsonl"));
  EXPECT_TRUE(report.empty()) << report.render_text();
}

// A typo'd --disable must be a usage error naming the bad code, never a
// silent no-op that quietly disables nothing.
TEST(LintReport, RemoveCodesRejectsUnregisteredRuleByName) {
  LintReport report;
  report.add("FF001", SourceLocation{"x.json", 1, 1, ""}, "broken");
  try {
    report.remove_codes({"FF001", "FF999"});
    FAIL() << "expected NotFoundError for FF999";
  } catch (const NotFoundError& error) {
    EXPECT_NE(std::string(error.what()).find("FF999"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(report.size(), 1u);  // the throw left the report untouched
  report.remove_codes({"FF001"});
  EXPECT_TRUE(report.empty());
}

}  // namespace
}  // namespace ff::lint
