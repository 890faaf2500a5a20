// Rule-update plumbing across switch models: insert / remove / modify
// semantics, priority re-sorting, and classifier recompilation.
#include <gtest/gtest.h>

#include "dataplane/switch.hpp"

namespace maton::dp {
namespace {

constexpr std::uint64_t kFull32 = 0xffffffffULL;

Program two_rule_program() {
  Program program;
  TableSpec table;
  table.name = "t0";
  table.fields = {FieldId::kIpDst};
  Rule a;
  a.priority = 32;
  a.matches = {{FieldId::kIpDst, 1, kFull32}};
  a.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 10}};
  Rule b = a;
  b.matches[0].value = 2;
  b.actions[0].value = 20;
  table.rules = {a, b};
  program.tables.push_back(std::move(table));
  return program;
}

FlowKey key(std::uint64_t dst) {
  FlowKey k;
  k.set(FieldId::kIpDst, dst);
  return k;
}

class UpdateSemantics : public ::testing::TestWithParam<const char*> {
 protected:
  static std::unique_ptr<SwitchModel> make() {
    const std::string_view which = GetParam();
    if (which == "eswitch") return make_eswitch_model();
    if (which == "lagopus") return make_lagopus_model();
    if (which == "ovs") return make_ovs_model();
    return std::make_unique<HwTcamModel>();
  }
};

TEST_P(UpdateSemantics, InsertAddsForwardingState) {
  auto sw = make();
  ASSERT_TRUE(sw->load(two_rule_program()).is_ok());
  EXPECT_FALSE(sw->process(key(3)).hit);

  RuleUpdate insert;
  insert.kind = RuleUpdate::Kind::kInsert;
  insert.table = 0;
  insert.rule.priority = 32;
  insert.rule.matches = {{FieldId::kIpDst, 3, kFull32}};
  insert.rule.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 30}};
  ASSERT_TRUE(sw->apply_update(insert).is_ok());

  const ExecResult r = sw->process(key(3));
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.out_port, 30u);
  // Pre-existing state unaffected.
  EXPECT_EQ(sw->process(key(1)).out_port, 10u);
}

TEST_P(UpdateSemantics, RemoveDeletesForwardingState) {
  auto sw = make();
  ASSERT_TRUE(sw->load(two_rule_program()).is_ok());
  ASSERT_TRUE(sw->process(key(2)).hit);

  RuleUpdate remove;
  remove.kind = RuleUpdate::Kind::kRemove;
  remove.table = 0;
  remove.target = {{FieldId::kIpDst, 2, kFull32}};
  ASSERT_TRUE(sw->apply_update(remove).is_ok());
  EXPECT_FALSE(sw->process(key(2)).hit);
  EXPECT_TRUE(sw->process(key(1)).hit);
}

TEST_P(UpdateSemantics, ModifyReplacesActions) {
  auto sw = make();
  ASSERT_TRUE(sw->load(two_rule_program()).is_ok());

  RuleUpdate modify;
  modify.kind = RuleUpdate::Kind::kModify;
  modify.table = 0;
  modify.target = {{FieldId::kIpDst, 1, kFull32}};
  modify.rule.priority = 32;
  modify.rule.matches = {{FieldId::kIpDst, 1, kFull32}};
  modify.rule.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 99}};
  ASSERT_TRUE(sw->apply_update(modify).is_ok());
  EXPECT_EQ(sw->process(key(1)).out_port, 99u);
}

TEST_P(UpdateSemantics, UpdateToUnknownTableFails) {
  auto sw = make();
  ASSERT_TRUE(sw->load(two_rule_program()).is_ok());
  RuleUpdate bad;
  bad.kind = RuleUpdate::Kind::kInsert;
  bad.table = 7;
  const Status s = sw->apply_update(bad);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_P(UpdateSemantics, InsertedHigherPriorityRuleWins) {
  auto sw = make();
  Program program = two_rule_program();
  // Widen rule space: add a low-priority catch-all for dst 1's /8.
  ASSERT_TRUE(sw->load(program).is_ok());

  RuleUpdate insert;
  insert.kind = RuleUpdate::Kind::kInsert;
  insert.table = 0;
  insert.rule.priority = 64;  // beats the existing exact rule
  insert.rule.matches = {{FieldId::kIpDst, 1, kFull32}};
  insert.rule.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 77}};
  ASSERT_TRUE(sw->apply_update(insert).is_ok());
  EXPECT_EQ(sw->process(key(1)).out_port, 77u);
}

INSTANTIATE_TEST_SUITE_P(Models, UpdateSemantics,
                         ::testing::Values("eswitch", "lagopus", "ovs",
                                           "hw"));

// ---------------------------------------------------------------------
// Batched apply_updates must be observationally identical to the scalar
// apply_update loop: same forwarding behavior, same per-update failure
// point, earlier updates still applied after a mid-sequence error.

std::vector<RuleUpdate> churn_updates() {
  std::vector<RuleUpdate> ups;
  for (std::uint64_t dst = 3; dst <= 8; ++dst) {
    RuleUpdate insert;
    insert.kind = RuleUpdate::Kind::kInsert;
    insert.table = 0;
    insert.rule.priority = 16 + static_cast<std::uint32_t>(dst % 3) * 16;
    insert.rule.matches = {{FieldId::kIpDst, dst, kFull32}};
    insert.rule.actions = {
        {Action::Kind::kOutput, FieldId::kMeta0, 100 + dst}};
    ups.push_back(insert);
  }
  RuleUpdate modify;
  modify.kind = RuleUpdate::Kind::kModify;
  modify.target = {{FieldId::kIpDst, 1, kFull32}};
  modify.rule.priority = 32;
  modify.rule.matches = {{FieldId::kIpDst, 1, kFull32}};
  modify.rule.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 91}};
  ups.push_back(modify);
  RuleUpdate remove;
  remove.kind = RuleUpdate::Kind::kRemove;
  remove.target = {{FieldId::kIpDst, 4, kFull32}};
  ups.push_back(remove);
  RuleUpdate shadow;
  shadow.kind = RuleUpdate::Kind::kInsert;
  shadow.rule.priority = 64;  // beats the round-one insert for dst 6
  shadow.rule.matches = {{FieldId::kIpDst, 6, kFull32}};
  shadow.rule.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 66}};
  ups.push_back(shadow);
  return ups;
}

TEST_P(UpdateSemantics, BatchedUpdatesMatchScalarLoop) {
  auto batched = make();
  auto scalar = make();
  ASSERT_TRUE(batched->load(two_rule_program()).is_ok());
  ASSERT_TRUE(scalar->load(two_rule_program()).is_ok());

  const std::vector<RuleUpdate> ups = churn_updates();
  ASSERT_TRUE(batched->apply_updates(ups).is_ok());
  for (const RuleUpdate& up : ups) {
    ASSERT_TRUE(scalar->apply_update(up).is_ok());
  }

  for (std::uint64_t dst = 0; dst <= 12; ++dst) {
    const ExecResult got = batched->process(key(dst));
    const ExecResult want = scalar->process(key(dst));
    EXPECT_EQ(got.hit, want.hit) << "dst=" << dst;
    EXPECT_EQ(got.out_port, want.out_port) << "dst=" << dst;
  }
}

TEST_P(UpdateSemantics, BatchedUpdatesStopAtFirstFailure) {
  auto sw = make();
  ASSERT_TRUE(sw->load(two_rule_program()).is_ok());

  std::vector<RuleUpdate> ups(3);
  ups[0].kind = RuleUpdate::Kind::kInsert;
  ups[0].rule.priority = 32;
  ups[0].rule.matches = {{FieldId::kIpDst, 40, kFull32}};
  ups[0].rule.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 40}};
  ups[1].kind = RuleUpdate::Kind::kRemove;
  ups[1].target = {{FieldId::kIpDst, 999, kFull32}};  // no such rule
  ups[2] = ups[0];
  ups[2].rule.matches[0].value = 41;

  const Status s = sw->apply_updates(ups);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  // Update 0 landed (non-atomic batch, like the scalar loop); update 2
  // never ran.
  EXPECT_TRUE(sw->process(key(40)).hit);
  EXPECT_FALSE(sw->process(key(41)).hit);
}

TEST_P(UpdateSemantics, EmptyBatchIsANoOp) {
  auto sw = make();
  ASSERT_TRUE(sw->load(two_rule_program()).is_ok());
  ASSERT_TRUE(sw->apply_updates({}).is_ok());
  EXPECT_EQ(sw->process(key(1)).out_port, 10u);
}

// ---------------------------------------------------------------------
// An in-place modify can give a program its first set-field action
// without a classifier rebuild (the exact template patches action-only
// modifies). The batch walker must still rewrite packet state from then
// on: process_batch == process == the reference executor.

Program two_table_program() {
  Program program = two_rule_program();
  program.tables[0].next = 1;
  TableSpec tag;
  tag.name = "t1";
  tag.fields = {FieldId::kMeta0};
  Rule untagged;
  untagged.priority = 32;
  untagged.matches = {{FieldId::kMeta0, 0, field_full_mask(FieldId::kMeta0)}};
  untagged.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 50}};
  Rule tagged = untagged;
  tagged.matches[0].value = 7;
  tagged.actions[0].value = 70;
  tag.rules = {untagged, tagged};
  program.tables.push_back(std::move(tag));
  return program;
}

TEST(UpdateSetField, InPlaceModifyAddingSetFieldReachesBatchWalker) {
  RuleUpdate modify;
  modify.kind = RuleUpdate::Kind::kModify;
  modify.table = 0;
  modify.target = {{FieldId::kIpDst, 1, kFull32}};
  modify.rule.priority = 32;  // same priority: patched in place
  modify.rule.matches = modify.target;
  modify.rule.actions = {{Action::Kind::kSetField, FieldId::kMeta0, 7},
                         {Action::Kind::kOutput, FieldId::kMeta0, 10}};
  Program want_program = two_table_program();
  ASSERT_TRUE(apply_update_to_program(want_program, modify).is_ok());

  std::vector<FlowKey> keys;
  for (std::uint64_t dst = 0; dst < 40; ++dst) keys.push_back(key(dst % 4));
  for (const char* which : {"eswitch", "lagopus"}) {
    SCOPED_TRACE(which);
    auto sw = std::string_view(which) == "eswitch" ? make_eswitch_model()
                                                   : make_lagopus_model();
    ASSERT_TRUE(sw->load(two_table_program()).is_ok());
    std::vector<ExecResult> batch(keys.size());
    sw->process_batch(keys, batch);  // warm the walker before the update
    ASSERT_TRUE(sw->apply_update(modify).is_ok());

    sw->process_batch(keys, batch);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const ExecResult want = execute_reference(want_program, keys[i]);
      const ExecResult scalar = sw->process(keys[i]);
      EXPECT_EQ(batch[i].hit, want.hit) << "key " << i;
      EXPECT_EQ(batch[i].out_port, want.out_port) << "key " << i;
      EXPECT_EQ(batch[i].tables_visited, want.tables_visited) << "key " << i;
      EXPECT_EQ(scalar.hit, want.hit) << "key " << i;
      EXPECT_EQ(scalar.out_port, want.out_port) << "key " << i;
    }
    // dst 1 now carries the tag into t1; dst 2 does not.
    EXPECT_EQ(batch[1].out_port, 70u);
    EXPECT_EQ(batch[2].out_port, 50u);
  }
}

TEST(UpdateProgram, StandaloneHelper) {
  Program program = two_rule_program();
  RuleUpdate remove;
  remove.kind = RuleUpdate::Kind::kRemove;
  remove.table = 0;
  remove.target = {{FieldId::kIpDst, 9, kFull32}};
  EXPECT_EQ(apply_update_to_program(program, remove).code(),
            StatusCode::kNotFound);
  remove.target = {{FieldId::kIpDst, 1, kFull32}};
  EXPECT_TRUE(apply_update_to_program(program, remove).is_ok());
  EXPECT_EQ(program.tables[0].rules.size(), 1u);
}

}  // namespace
}  // namespace maton::dp
