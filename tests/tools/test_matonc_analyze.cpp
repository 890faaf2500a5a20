// Subprocess tests of the real matonc binary (path injected via
// MATONC_BIN). `--analyze`: the JSON report byte-for-byte for a fixed
// built-in program, renderer selection and the exit-code contract
// (non-zero iff error-severity diagnostics). `normalize`: every sample
// spec (MATON_SPECS_DIR) is proven equivalent symbolically, and the
// retired `--verify` switch is a usage error.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#ifndef MATONC_BIN
#error "MATONC_BIN must point at the matonc executable"
#endif
#ifndef MATON_SPECS_DIR
#error "MATON_SPECS_DIR must point at examples/specs"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;
};

/// Runs matonc with the given arguments, capturing stdout (stderr is
/// folded in so a crash message shows up in test failures).
RunResult run_matonc(const std::string& args) {
  const std::string command = std::string(MATONC_BIN) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  std::size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.out.append(buffer.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(MatoncAnalyze, GoldenJsonForPaperRematchExample) {
  // The paper example is fully deterministic, so the whole report is.
  const RunResult result =
      run_matonc("analyze gwlb:rematch --analyze=json");
  ASSERT_EQ(result.exit_code, 0) << result.out;
  const std::string expected =
      "{\"diagnostics\":["
      "{\"severity\":\"info\",\"code\":\"MA403\",\"pass\":\"schema_nf\","
      "\"table\":0,"
      "\"message\":\"table 'gwlb.universal' match key "
      "{ip_src, ip_dst, tcp_dst} is non-minimal: {ip_src, ip_dst} "
      "already identifies every entry\","
      "\"witness\":\"candidate key: {ip_src, ip_dst}\"},"
      "{\"severity\":\"info\",\"code\":\"MA406\",\"pass\":\"schema_nf\","
      "\"table\":0,"
      "\"message\":\"table 'gwlb.universal' is below BCNF: "
      "ip_dst -> tcp_dst has a non-superkey determinant\","
      "\"witness\":\"BCNF violations: 2\"},"
      "{\"severity\":\"info\",\"code\":\"MA602\",\"pass\":\"symbolic\","
      "\"message\":\"slices 'service 0' vs 'service 1' are proven "
      "disjoint\",\"witness\":\"2 vs 3 rules\"},"
      "{\"severity\":\"info\",\"code\":\"MA602\",\"pass\":\"symbolic\","
      "\"message\":\"slices 'service 1' vs 'service 2' are proven "
      "disjoint\",\"witness\":\"3 vs 1 rules\"}"
      "],\"summary\":{\"error\":0,\"warning\":0,\"info\":4},"
      "\"passes\":["
      "{\"name\":\"shadowing\",\"ran\":true,\"diagnostics\":0},"
      "{\"name\":\"reachability\",\"ran\":true,\"diagnostics\":0},"
      "{\"name\":\"dataflow\",\"ran\":true,\"diagnostics\":0},"
      "{\"name\":\"schema_nf\",\"ran\":true,\"diagnostics\":2},"
      "{\"name\":\"decomposition\",\"ran\":true,\"diagnostics\":0},"
      "{\"name\":\"symbolic\",\"ran\":true,\"diagnostics\":2}"
      "]}";
  EXPECT_EQ(result.out, expected);
}

TEST(MatoncAnalyze, SymbolicPassProvesEveryRepresentation) {
  // The MA601 program-pair check (live program vs an independent
  // recompile) and the MA603 decomposition check (universal table vs the
  // decomposed pipeline) must both come back silent — a proof — for
  // every representation, while the MA602 slice-isolation proofs report
  // their positive certificates.
  for (const char* repr :
       {"universal", "goto", "metadata", "rematch"}) {
    const RunResult result = run_matonc(
        "analyze gwlb:" + std::string(repr) + " --analyze=json");
    EXPECT_EQ(result.exit_code, 0) << repr << ": " << result.out;
    EXPECT_NE(result.out.find("\"name\":\"symbolic\",\"ran\":true"),
              std::string::npos)
        << repr << ": " << result.out;
    EXPECT_NE(result.out.find("\"code\":\"MA602\""), std::string::npos)
        << repr << ": " << result.out;
    EXPECT_EQ(result.out.find("\"code\":\"MA601\""), std::string::npos)
        << repr << ": " << result.out;
    EXPECT_EQ(result.out.find("\"code\":\"MA603\""), std::string::npos)
        << repr << ": " << result.out;
    EXPECT_EQ(result.out.find("\"code\":\"MA604\""), std::string::npos)
        << repr << ": " << result.out;
  }
}

TEST(MatoncAnalyze, TextRendererSummarizesPasses) {
  const RunResult result = run_matonc("analyze gwlb:goto --analyze");
  ASSERT_EQ(result.exit_code, 0) << result.out;
  EXPECT_NE(result.out.find("analysis: 0 error(s), 0 warning(s)"),
            std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("shadowing(0)"), std::string::npos);
  EXPECT_NE(result.out.find("decomposition(0)"), std::string::npos);
}

TEST(MatoncAnalyze, SeedShapeIsCleanInAllRepresentations) {
  for (const char* repr :
       {"universal", "goto", "metadata", "rematch"}) {
    const RunResult result = run_matonc(
        "analyze gwlb:" + std::string(repr) + "@20x8 --analyze=json");
    EXPECT_EQ(result.exit_code, 0) << repr << ": " << result.out;
    EXPECT_NE(result.out.find("\"error\":0,\"warning\":0"),
              std::string::npos)
        << repr << ": " << result.out;
  }
}

TEST(MatoncAnalyze, BadSpecFailsWithUsage) {
  const RunResult result = run_matonc("analyze gwlb:bogus --analyze");
  EXPECT_NE(result.exit_code, 0);
}

std::string spec(const char* name) {
  return std::string(MATON_SPECS_DIR) + "/" + name;
}

TEST(MatoncNormalize, EverySampleSpecIsProvenSymbolically) {
  for (const char* name : {"gwlb.maton", "l3.maton", "vlan.maton"}) {
    const RunResult result = run_matonc("normalize " + spec(name));
    EXPECT_EQ(result.exit_code, 0) << name << "\n" << result.out;
    EXPECT_NE(result.out.find("# verified equivalent symbolically"),
              std::string::npos)
        << name << "\n" << result.out;
    EXPECT_EQ(result.out.find("probe packets"), std::string::npos)
        << name << "\n" << result.out;
  }
}

TEST(MatoncNormalize, VerifySwitchIsRejected) {
  const RunResult result =
      run_matonc("normalize " + spec("gwlb.maton") + " --verify=probe");
  EXPECT_EQ(result.exit_code, 2) << result.out;
  EXPECT_NE(result.out.find("unknown option '--verify=probe'"),
            std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("usage: matonc"), std::string::npos)
      << result.out;
}

}  // namespace
