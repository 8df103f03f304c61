#include "system/machine.h"

#include "gtest/gtest.h"
#include "relational/builder.h"
#include "relational/ops_reference.h"
#include "test_util.h"

namespace systolic {
namespace machine {
namespace {

using rel::Relation;
using rel::Schema;
using systolic::testing::Rel;

TEST(MemoryModuleTest, StoreReadClear) {
  const Schema schema = rel::MakeIntSchema(2);
  MemoryModule mem("m0");
  EXPECT_FALSE(mem.occupied());
  EXPECT_TRUE(mem.Contents().status().IsNotFound());
  mem.Store(Rel(schema, {{1, 2}, {3, 4}}));
  EXPECT_TRUE(mem.occupied());
  ASSERT_OK(mem.Contents());
  EXPECT_EQ(mem.bytes_written(), 2 * 2 * 8.0);
  mem.AccountRead();
  EXPECT_EQ(mem.bytes_read(), 2 * 2 * 8.0);
  mem.Clear();
  EXPECT_FALSE(mem.occupied());
}

TEST(DiskUnitTest, ReadWriteChargesTransferTime) {
  const Schema schema = rel::MakeIntSchema(1);
  DiskUnit disk;
  disk.Put("r", Rel(schema, {{1}, {2}, {3}}));
  EXPECT_DOUBLE_EQ(disk.total_io_seconds(), 0.0) << "Put does not charge";
  auto r = disk.Read("r");
  ASSERT_OK(r);
  EXPECT_GT(disk.total_io_seconds(), 0.0);
  EXPECT_EQ(disk.total_bytes(), 3 * 8.0);
  EXPECT_TRUE(disk.Read("ghost").status().IsNotFound());
  disk.Write("r2", *r);
  EXPECT_EQ(disk.RelationNames().size(), 2u);
}

class MachineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = rel::MakeIntSchema(1);
    MachineConfig config;
    config.num_memories = 6;
    machine_ = std::make_unique<Machine>(config);
    machine_->disk().Put("A", Rel(schema_, {{1}, {2}, {3}, {4}}));
    machine_->disk().Put("B", Rel(schema_, {{3}, {4}, {5}}));
    machine_->disk().Put("C", Rel(schema_, {{4}, {9}}));
  }

  Schema schema_;
  std::unique_ptr<Machine> machine_;
};

TEST_F(MachineFixture, LoadExecuteWriteBackRoundTrip) {
  // §9's working cycle: disk -> memory -> array -> memory -> disk.
  ASSERT_STATUS_OK(machine_->LoadFromDisk("A"));
  ASSERT_STATUS_OK(machine_->LoadFromDisk("B"));

  Transaction txn;
  txn.Intersect("A", "B", "AB");
  auto report = machine_->Execute(txn);
  ASSERT_OK(report);
  auto ab = machine_->Buffer("AB");
  ASSERT_OK(ab);
  EXPECT_EQ((*ab)->num_tuples(), 2u);

  ASSERT_STATUS_OK(machine_->WriteBackToDisk("AB", "A_intersect_B"));
  auto back = machine_->disk().Read("A_intersect_B");
  ASSERT_OK(back);
  EXPECT_TRUE(back->BagEquals(**ab));
}

TEST_F(MachineFixture, MultiStepTransactionMatchesOracle) {
  ASSERT_STATUS_OK(machine_->LoadFromDisk("A"));
  ASSERT_STATUS_OK(machine_->LoadFromDisk("B"));
  ASSERT_STATUS_OK(machine_->LoadFromDisk("C"));

  // (A ∩ B) ∪ C, then dedup is implicit in union.
  Transaction txn;
  txn.Intersect("A", "B", "AB").Union("AB", "C", "OUT");
  auto report = machine_->Execute(txn);
  ASSERT_OK(report);
  ASSERT_EQ(report->steps.size(), 2u);
  EXPECT_EQ(report->steps[0].level, 0u);
  EXPECT_EQ(report->steps[1].level, 1u);

  auto a = machine_->disk().Read("A");
  auto b = machine_->disk().Read("B");
  auto c = machine_->disk().Read("C");
  auto ab = rel::reference::Intersection(*a, *b);
  ASSERT_OK(ab);
  auto oracle = rel::reference::Union(*ab, *c);
  ASSERT_OK(oracle);
  auto out = machine_->Buffer("OUT");
  ASSERT_OK(out);
  EXPECT_TRUE((*out)->BagEquals(*oracle));
}

TEST_F(MachineFixture, IndependentStepsShareALevelAndConcurrencyHelps) {
  ASSERT_STATUS_OK(machine_->LoadFromDisk("A"));
  ASSERT_STATUS_OK(machine_->LoadFromDisk("B"));
  ASSERT_STATUS_OK(machine_->LoadFromDisk("C"));

  Transaction txn;
  txn.Intersect("A", "B", "x").Intersect("A", "C", "y");

  // One intersect device: the two steps serialise.
  auto serial_report = machine_->Execute(txn);
  ASSERT_OK(serial_report);
  EXPECT_NEAR(serial_report->makespan_seconds, serial_report->serial_seconds,
              1e-12);

  // Two intersect devices: they run concurrently; makespan < serial.
  MachineConfig config;
  config.num_memories = 6;
  config.device_counts[OpKind::kIntersect] = 2;
  Machine wide(config);
  wide.disk().Put("A", Rel(schema_, {{1}, {2}, {3}, {4}}));
  wide.disk().Put("B", Rel(schema_, {{3}, {4}, {5}}));
  wide.disk().Put("C", Rel(schema_, {{4}, {9}}));
  ASSERT_STATUS_OK(wide.LoadFromDisk("A"));
  ASSERT_STATUS_OK(wide.LoadFromDisk("B"));
  ASSERT_STATUS_OK(wide.LoadFromDisk("C"));
  auto wide_report = wide.Execute(txn);
  ASSERT_OK(wide_report);
  EXPECT_LT(wide_report->makespan_seconds, wide_report->serial_seconds);
}

TEST_F(MachineFixture, ReportsCrossbarTraffic) {
  ASSERT_STATUS_OK(machine_->LoadFromDisk("A"));
  ASSERT_STATUS_OK(machine_->LoadFromDisk("B"));
  Transaction txn;
  txn.Intersect("A", "B", "AB");
  auto report = machine_->Execute(txn);
  ASSERT_OK(report);
  EXPECT_EQ(report->crossbar_configurations, 1u);
  // 4 + 3 input tuples + 2 output tuples, 8 bytes each (arity 1).
  EXPECT_DOUBLE_EQ(report->bytes_through_crossbar, (4 + 3 + 2) * 8.0);
  EXPECT_GT(report->steps[0].transfer_seconds, 0.0);
  EXPECT_GT(report->steps[0].compute_seconds, 0.0);
}

TEST_F(MachineFixture, MemoryExhaustionFailsWithCapacity) {
  MachineConfig config;
  config.num_memories = 2;
  Machine tiny(config);
  tiny.disk().Put("A", Rel(schema_, {{1}}));
  tiny.disk().Put("B", Rel(schema_, {{1}}));
  ASSERT_STATUS_OK(tiny.LoadFromDisk("A"));
  ASSERT_STATUS_OK(tiny.LoadFromDisk("B"));
  Transaction txn;
  txn.Intersect("A", "B", "AB");
  auto report = tiny.Execute(txn);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCapacity()) << report.status().ToString();
}

TEST_F(MachineFixture, ReleaseBufferFreesModule) {
  MachineConfig config;
  config.num_memories = 1;
  Machine tiny(config);
  tiny.disk().Put("A", Rel(schema_, {{1}}));
  ASSERT_STATUS_OK(tiny.LoadFromDisk("A"));
  EXPECT_TRUE(tiny.LoadFromDisk("A").IsAlreadyExists());
  ASSERT_STATUS_OK(tiny.ReleaseBuffer("A"));
  ASSERT_STATUS_OK(tiny.LoadFromDisk("A"));
}

TEST_F(MachineFixture, DuplicateBufferNameRejected) {
  ASSERT_STATUS_OK(machine_->LoadFromDisk("A"));
  EXPECT_TRUE(machine_->LoadFromDisk("A").IsAlreadyExists());
}

TEST_F(MachineFixture, ExecuteOnBoundedDeviceTiles) {
  MachineConfig config;
  config.num_memories = 6;
  config.device.rows = 3;  // marching capacity 2
  config.device.mode = arrays::FeedModePolicy::kMarching;
  Machine small(config);
  small.disk().Put("A", Rel(schema_, {{1}, {2}, {3}, {4}}));
  small.disk().Put("B", Rel(schema_, {{3}, {4}, {5}}));
  ASSERT_STATUS_OK(small.LoadFromDisk("A"));
  ASSERT_STATUS_OK(small.LoadFromDisk("B"));
  Transaction txn;
  txn.Intersect("A", "B", "AB");
  auto report = small.Execute(txn);
  ASSERT_OK(report);
  EXPECT_GT(report->steps[0].exec.passes, 1u);
  auto ab = small.Buffer("AB");
  ASSERT_OK(ab);
  EXPECT_EQ((*ab)->num_tuples(), 2u);
}

TEST_F(MachineFixture, PerKindDeviceConfigs) {
  // A machine whose join device is tiny (forces tiling) while the shared
  // default device is unbounded: only join steps tile.
  MachineConfig config;
  config.num_memories = 8;
  db::DeviceConfig tiny;
  tiny.rows = 1;
  config.device_configs[OpKind::kJoin] = tiny;
  Machine m(config);

  auto dk = rel::Domain::Make("k", rel::ValueType::kInt64);
  Schema sa({{"k", dk}});
  Schema sb({{"k", dk}});
  m.disk().Put("A", Rel(sa, {{1}, {2}, {3}, {4}}));
  m.disk().Put("B", Rel(sb, {{2}, {3}}));
  ASSERT_STATUS_OK(m.LoadFromDisk("A"));
  ASSERT_STATUS_OK(m.LoadFromDisk("B"));

  Transaction txn;
  txn.Join("A", "B", rel::JoinSpec{{0}, {0}, rel::ComparisonOp::kEq}, "J")
      .RemoveDuplicates("A", "DA");
  auto report = m.Execute(txn);
  ASSERT_OK(report);
  size_t join_passes = 0;
  size_t dedup_passes = 0;
  for (const auto& step : report->steps) {
    if (step.op == OpKind::kJoin) join_passes = step.exec.passes;
    if (step.op == OpKind::kRemoveDuplicates) dedup_passes = step.exec.passes;
  }
  EXPECT_GT(join_passes, 1u) << "tiny join device must tile";
  EXPECT_EQ(dedup_passes, 1u) << "default device is unbounded";
  auto j = m.Buffer("J");
  ASSERT_OK(j);
  EXPECT_EQ((*j)->num_tuples(), 2u);
}

}  // namespace
}  // namespace machine
}  // namespace systolic
