#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "fasda/sim/kernel.hpp"

namespace fasda::sim {
namespace {

TEST(Fifo, PushesBecomeVisibleAfterCommit) {
  Fifo<int> fifo(4);
  EXPECT_TRUE(fifo.push(1));
  EXPECT_TRUE(fifo.empty()) << "staged pushes must be invisible this cycle";
  EXPECT_EQ(fifo.total_occupancy(), 1u);
  fifo.commit();
  ASSERT_FALSE(fifo.empty());
  EXPECT_EQ(fifo.front(), 1);
  EXPECT_EQ(fifo.pop(), 1);
  EXPECT_TRUE(fifo.empty());
}

TEST(Fifo, CapacityCountsStagedItems) {
  Fifo<int> fifo(2);
  EXPECT_TRUE(fifo.push(1));
  EXPECT_TRUE(fifo.push(2));
  EXPECT_FALSE(fifo.can_push());
  EXPECT_FALSE(fifo.push(3));
  fifo.commit();
  EXPECT_FALSE(fifo.can_push());
  fifo.pop();
  EXPECT_TRUE(fifo.can_push());
}

TEST(Fifo, PopAndFrontOnEmptyCommittedQueueThrow) {
  Fifo<int> fifo(4);
  EXPECT_THROW(fifo.pop(), std::logic_error);
  EXPECT_THROW(fifo.front(), std::logic_error);
  // A staged-but-uncommitted item is still invisible to pop()/front().
  EXPECT_TRUE(fifo.push(1));
  EXPECT_THROW(fifo.pop(), std::logic_error);
  EXPECT_THROW(fifo.front(), std::logic_error);
  fifo.commit();
  EXPECT_EQ(fifo.front(), 1);
  EXPECT_EQ(fifo.pop(), 1);
  EXPECT_THROW(fifo.pop(), std::logic_error) << "drained: empty again";
}

TEST(Fifo, PreservesOrderAcrossCommits) {
  Fifo<int> fifo(8);
  fifo.push(1);
  fifo.push(2);
  fifo.commit();
  fifo.push(3);
  fifo.commit();
  EXPECT_EQ(fifo.pop(), 1);
  EXPECT_EQ(fifo.pop(), 2);
  EXPECT_EQ(fifo.pop(), 3);
}

TEST(Fifo, GrowsWhileItemsAreStagedAcrossAWrappedHead) {
  Fifo<int> fifo(16);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(fifo.push(i));
  fifo.commit();
  // Advance the head so the next pushes wrap around the 4-slot ring.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(fifo.pop(), i);
  ASSERT_TRUE(fifo.push(4));
  ASSERT_TRUE(fifo.push(5));
  fifo.commit();
  // 3, 4, 5 committed with the tail wrapped; the next pushes fill the ring
  // and then grow it while 6 is still staged.
  for (int i = 6; i < 9; ++i) ASSERT_TRUE(fifo.push(i));
  EXPECT_EQ(fifo.size(), 3u);
  EXPECT_EQ(fifo.total_occupancy(), 6u);
  for (int i = 3; i < 6; ++i) EXPECT_EQ(fifo.pop(), i);
  EXPECT_TRUE(fifo.empty()) << "grown ring must keep 6..8 staged";
  EXPECT_THROW(fifo.front(), std::logic_error);
  fifo.commit();
  for (int i = 6; i < 9; ++i) EXPECT_EQ(fifo.pop(), i);
  EXPECT_EQ(fifo.total_occupancy(), 0u);
}

// Differential check against a reference model — a std::deque of committed
// items plus a vector of staged ones — over 10^5 random operations per
// capacity. Push and pop bias alternate every 2000 operations, so each
// capacity is driven both full and empty, the head wraps many times and the
// ring grows (1024) while items are staged.
TEST(Fifo, MatchesDequeModelUnderRandomOperations) {
  for (const std::size_t capacity : {1u, 3u, 16u, 1024u}) {
    SCOPED_TRACE("capacity=" + std::to_string(capacity));
    Fifo<std::uint64_t> fifo(capacity);
    std::deque<std::uint64_t> committed;
    std::vector<std::uint64_t> staged;
    std::mt19937_64 rng(capacity);
    std::uint64_t next = 0;
    for (int op = 0; op < 100000; ++op) {
      const bool fill = (op / 2000) % 2 == 0;
      const unsigned roll = static_cast<unsigned>(rng() % 16);
      const bool room = committed.size() + staged.size() < capacity;
      if (roll < (fill ? 8u : 4u)) {
        ASSERT_EQ(fifo.push(next), room);
        if (room) staged.push_back(next);
        ++next;
      } else if (roll < 12u) {
        if (committed.empty()) {
          EXPECT_THROW(fifo.front(), std::logic_error);
          EXPECT_THROW(fifo.pop(), std::logic_error);
        } else {
          ASSERT_EQ(fifo.front(), committed.front());
          ASSERT_EQ(fifo.pop(), committed.front());
          committed.pop_front();
        }
      } else if (roll < 15u) {
        fifo.commit();
        committed.insert(committed.end(), staged.begin(), staged.end());
        staged.clear();
      } else {
        ASSERT_EQ(fifo.can_push(), room);
      }
      ASSERT_EQ(fifo.empty(), committed.empty());
      ASSERT_EQ(fifo.size(), committed.size());
      ASSERT_EQ(fifo.total_occupancy(), committed.size() + staged.size());
      ASSERT_EQ(fifo.can_push(),
                committed.size() + staged.size() < capacity);
    }
    EXPECT_GT(next, 30000u);
  }
}

TEST(Reg, WriteVisibleNextCycleOnly) {
  Reg<int> reg;
  EXPECT_TRUE(reg.can_write());
  reg.write(7);
  EXPECT_FALSE(reg.valid());
  EXPECT_FALSE(reg.can_write());
  reg.commit();
  EXPECT_TRUE(reg.valid());
  EXPECT_EQ(reg.value(), 7);
  EXPECT_FALSE(reg.can_write()) << "full slot: clear first";
  reg.clear();
  reg.commit();
  EXPECT_TRUE(reg.can_write());
}

TEST(Reg, DoubleWriteThrows) {
  Reg<int> reg;
  reg.write(1);
  EXPECT_THROW(reg.write(2), std::logic_error);
}

TEST(UtilCounter, Ratios) {
  UtilCounter c;
  c.record(1, 2, true);
  c.record(1, 2, false);
  EXPECT_DOUBLE_EQ(c.hardware_utilization(), 0.5);
  EXPECT_DOUBLE_EQ(c.time_utilization(2), 0.5);
  EXPECT_DOUBLE_EQ(c.time_utilization(2, 2), 0.25);
  UtilCounter d;
  d.record(2, 2, true);
  c.merge(d);
  EXPECT_DOUBLE_EQ(c.hardware_utilization(), 4.0 / 6.0);
}

TEST(UtilCounter, EmptyIsZero) {
  const UtilCounter c;
  EXPECT_DOUBLE_EQ(c.hardware_utilization(), 0.0);
  EXPECT_DOUBLE_EQ(c.time_utilization(0), 0.0);
}

class Producer : public Component {
 public:
  Producer(Fifo<int>* out) : Component("producer"), out_(out) {}
  void tick(Cycle now) override { out_->push(static_cast<int>(now)); }

 private:
  Fifo<int>* out_;
};

class Consumer : public Component {
 public:
  Consumer(Fifo<int>* in) : Component("consumer"), in_(in) {}
  void tick(Cycle) override {
    if (!in_->empty()) values.push_back(in_->pop());
  }
  std::vector<int> values;

 private:
  Fifo<int>* in_;
};

TEST(Scheduler, TickOrderInvariance) {
  // Producer->FIFO->Consumer must behave identically whichever is ticked
  // first: that's the whole point of two-phase state.
  auto run = [](bool producer_first) {
    Fifo<int> fifo(100);
    Producer p(&fifo);
    Consumer c(&fifo);
    Scheduler s;
    if (producer_first) {
      s.add(&p);
      s.add(&c);
    } else {
      s.add(&c);
      s.add(&p);
    }
    s.add_clocked(&fifo);
    for (int i = 0; i < 10; ++i) s.run_cycle();
    return c.values;
  };
  EXPECT_EQ(run(true), run(false));
  const auto v = run(true);
  ASSERT_GE(v.size(), 2u);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[1], 1) << "one-cycle FIFO latency";
}

TEST(Scheduler, RunUntilStopsAndThrowsOnBudget) {
  Scheduler s;
  int count = 0;
  class Counter : public Component {
   public:
    explicit Counter(int* c) : Component("counter"), c_(c) {}
    void tick(Cycle) override { ++*c_; }

   private:
    int* c_;
  } counter(&count);
  s.add(&counter);
  s.run_until([&] { return count >= 5; }, 100);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.cycle(), 5u);
  EXPECT_THROW(s.run_until([] { return false; }, 10), std::runtime_error);
}

}  // namespace
}  // namespace fasda::sim
