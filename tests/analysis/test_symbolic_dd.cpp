// Unit tests of the symbolic equivalence engine: diagram-store algebra,
// both front-ends, counterexample confirmation and budget bail-out.
#include "analysis/symbolic/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "dataplane/program.hpp"
#include "workloads/gwlb.hpp"

namespace maton::analysis::symbolic {
namespace {

using workloads::Gwlb;

dp::Program compiled(const core::Pipeline& pipeline) {
  auto result = dp::compile(pipeline);
  EXPECT_TRUE(result.is_ok());
  return std::move(result).value();
}

TEST(DiagramStore, BooleanAlgebraIsCanonical) {
  DiagramStore dd(1 << 16);
  const std::vector<CubeBit> xs = {{0, true}};
  const std::vector<CubeBit> ys = {{1, false}};
  const NodeId x = dd.cube(xs);
  const NodeId y = dd.cube(ys);

  EXPECT_EQ(dd.b_and(x, x), x);
  EXPECT_EQ(dd.b_or(x, x), x);
  // ite collapses equal branches and orders variables globally.
  EXPECT_EQ(dd.ite(x, y, y), y);
  EXPECT_EQ(dd.ite(dd.true_leaf(), x, y), x);
  EXPECT_EQ(dd.ite(x, dd.true_leaf(), dd.false_leaf()), x);
}

TEST(DiagramStore, OverlayFirstIsLeftBiased) {
  DiagramStore dd(1 << 16);
  const NodeId miss = dd.leaf(7);
  const NodeId left = dd.leaf(8);
  const NodeId right = dd.leaf(9);
  const std::vector<CubeValue> key = {{0, 42}};
  const NodeId a = dd.ite(dd.value_cube(key), left, miss);
  const NodeId b = dd.ite(dd.value_cube(key), right, miss);
  // Same key on both sides: the earlier (left) row must win.
  EXPECT_EQ(dd.overlay_first(a, b, miss), a);
  EXPECT_EQ(dd.overlay_first(b, a, miss), b);
  // The identity operand is transparent.
  EXPECT_EQ(dd.overlay_first(miss, a, miss), a);
  EXPECT_EQ(dd.overlay_first(a, miss, miss), a);
}

TEST(DiagramStore, FirstDivergenceWalksToDifferingLeaves) {
  DiagramStore dd(1 << 16);
  const std::vector<CubeBit> xs = {{3, true}};
  const NodeId x = dd.cube(xs);
  EXPECT_FALSE(dd.first_divergence(x, x).has_value());
  const auto div = dd.first_divergence(x, dd.true_leaf());
  ASSERT_TRUE(div.has_value());
  EXPECT_NE(div->left, div->right);
  ASSERT_EQ(div->path.size(), 1u);
  EXPECT_EQ(div->path[0].var, 3u);
}

TEST(DiagramStore, NodeBudgetThrows) {
  DiagramStore dd(4);
  std::vector<CubeBit> bits;
  for (std::uint32_t v = 0; v < 16; ++v) bits.push_back({v, true});
  EXPECT_THROW(static_cast<void>(dd.cube(bits)), NodeBudgetExceeded);
}

TEST(CheckPrograms, PaperDecompositionsAreEquivalent) {
  const Gwlb gwlb = workloads::make_paper_example();
  const dp::Program universal =
      compiled(core::Pipeline::single(gwlb.universal));
  const dp::Program goto_prog = compiled(workloads::gwlb_goto_pipeline(gwlb));
  const dp::Program meta_prog =
      compiled(workloads::gwlb_metadata_pipeline(gwlb));
  const dp::Program rematch_prog =
      compiled(workloads::gwlb_rematch_pipeline(gwlb));

  for (const dp::Program* p :
       {&goto_prog, &meta_prog, &rematch_prog}) {
    const Result result = check_programs(universal, *p);
    EXPECT_EQ(result.outcome, Outcome::kEquivalent) << result.note;
  }
  EXPECT_TRUE(check_programs(goto_prog, meta_prog).equivalent());
  EXPECT_TRUE(check_programs(meta_prog, rematch_prog).equivalent());
}

TEST(CheckPrograms, RandomInstancesAreEquivalent) {
  for (const std::uint64_t seed : {2ull, 3ull, 4ull}) {
    const Gwlb gwlb = workloads::make_gwlb(
        {.num_services = 12, .num_backends = 4, .seed = seed});
    const dp::Program universal =
        compiled(core::Pipeline::single(gwlb.universal));
    const dp::Program goto_prog =
        compiled(workloads::gwlb_goto_pipeline(gwlb));
    const Result result = check_programs(universal, goto_prog);
    EXPECT_EQ(result.outcome, Outcome::kEquivalent) << result.note;
  }
}

TEST(CheckPrograms, MutatedBackendYieldsConfirmedCounterexample) {
  const Gwlb gwlb = workloads::make_paper_example();
  Gwlb mutated = gwlb;
  mutated.services[1].backends[0] ^= 1;  // reroute one backend
  const dp::Program left = compiled(workloads::gwlb_goto_pipeline(gwlb));
  const dp::Program right =
      compiled(workloads::gwlb_goto_pipeline(mutated));

  const Result result = check_programs(left, right);
  ASSERT_EQ(result.outcome, Outcome::kInequivalent);
  ASSERT_TRUE(result.counterexample.has_value());
  ASSERT_TRUE(result.counterexample->key.has_value());
  // The engine promises the scalar interpreter confirms the witness.
  const dp::FlowKey key = *result.counterexample->key;
  const dp::ExecResult ea = dp::execute_reference(left, key);
  const dp::ExecResult eb = dp::execute_reference(right, key);
  EXPECT_TRUE(ea.hit != eb.hit || ea.out_port != eb.out_port)
      << result.counterexample->description;
}

TEST(CheckPrograms, PrioritySwapOfDisjointRulesIsEquivalent) {
  // Two rules on disjoint keys: scan order must not matter.
  const auto rule = [](std::uint32_t prio, std::uint64_t vip,
                       std::uint64_t out) {
    dp::Rule r;
    r.priority = prio;
    r.matches = {{dp::FieldId::kIpDst, vip,
                  dp::field_full_mask(dp::FieldId::kIpDst)}};
    r.actions = {
        {dp::Action::Kind::kOutput, dp::FieldId::kInPort, out, 16}};
    return r;
  };
  dp::Program a;
  a.tables.push_back({"t", {dp::FieldId::kIpDst}, {}, std::nullopt});
  a.tables[0].rules.push_back(rule(2, 0xa000001, 7));
  a.tables[0].rules.push_back(rule(1, 0xa000002, 8));
  dp::Program b;
  b.tables.push_back({"t", {dp::FieldId::kIpDst}, {}, std::nullopt});
  b.tables[0].rules.push_back(rule(2, 0xa000002, 8));
  b.tables[0].rules.push_back(rule(1, 0xa000001, 7));

  EXPECT_TRUE(check_programs(a, b).equivalent());
}

TEST(CheckPrograms, TinyBudgetReportsUnknownNeverWrong) {
  const Gwlb gwlb = workloads::make_paper_example();
  const dp::Program universal =
      compiled(core::Pipeline::single(gwlb.universal));
  const dp::Program goto_prog = compiled(workloads::gwlb_goto_pipeline(gwlb));
  Options options;
  options.max_nodes = 8;
  const Result result = check_programs(universal, goto_prog, options);
  EXPECT_EQ(result.outcome, Outcome::kUnknown);
  EXPECT_FALSE(result.note.empty());
}

TEST(CheckPipelines, DecompositionsMatchUniversalTable) {
  const Gwlb gwlb = workloads::make_paper_example();
  for (const core::Pipeline& pipeline :
       {workloads::gwlb_goto_pipeline(gwlb),
        workloads::gwlb_metadata_pipeline(gwlb),
        workloads::gwlb_rematch_pipeline(gwlb)}) {
    const Result result =
        check_table_vs_pipeline(gwlb.universal, pipeline);
    EXPECT_EQ(result.outcome, Outcome::kEquivalent) << result.note;
  }
}

TEST(CheckPipelines, MutationYieldsConfirmedCounterexample) {
  const Gwlb gwlb = workloads::make_paper_example();
  Gwlb mutated = gwlb;
  mutated.services[0].backends[1] ^= 1;
  const core::Pipeline pipeline =
      workloads::gwlb_goto_pipeline(mutated);

  const Result result = check_table_vs_pipeline(gwlb.universal, pipeline);
  ASSERT_EQ(result.outcome, Outcome::kInequivalent);
  ASSERT_TRUE(result.counterexample.has_value());
  ASSERT_TRUE(result.counterexample->packet.has_value());
  const core::PacketState& packet = *result.counterexample->packet;
  const core::EvalResult ea =
      core::Pipeline::single(gwlb.universal).evaluate(packet);
  const core::EvalResult eb = pipeline.evaluate(packet);
  EXPECT_TRUE(ea.hit != eb.hit || ea.actions != eb.actions)
      << result.counterexample->description;
}

TEST(SlicesRelation, DisjointAndIntersectingRegions) {
  const auto vip_rule = [](std::uint64_t vip) {
    dp::Rule r;
    r.priority = 1;
    r.matches = {{dp::FieldId::kIpDst, vip,
                  dp::field_full_mask(dp::FieldId::kIpDst)}};
    return r;
  };
  const std::vector<dp::Rule> a = {vip_rule(0xa000001)};
  const std::vector<dp::Rule> b = {vip_rule(0xa000002)};
  const std::vector<dp::Rule> c = {vip_rule(0xa000001), vip_rule(0xb000001)};
  EXPECT_EQ(slices_relation(a, b), SliceRelation::kDisjoint);
  EXPECT_EQ(slices_relation(a, c), SliceRelation::kIntersecting);
  EXPECT_EQ(slices_relation(a, {}), SliceRelation::kDisjoint);
}

}  // namespace
}  // namespace maton::analysis::symbolic
