// Unit tests for the discrete-event simulation core.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "hat/sim/simulation.h"

namespace hat::sim {
namespace {

TEST(SimulationTest, ProcessesEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.At(30, [&] { order.push_back(3); });
  sim.At(10, [&] { order.push_back(1); });
  sim.At(20, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulationTest, EqualTimestampsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    sim.At(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; i++) EXPECT_EQ(order[i], i);
}

TEST(SimulationTest, AfterIsRelative) {
  Simulation sim;
  SimTime fired_at = 0;
  sim.At(100, [&] {
    // Scheduled from within an event: relative to current time.
  });
  sim.RunUntil(100);
  sim.After(50, [&] { fired_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(fired_at, 150u);
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) sim.After(10, recurse);
  };
  sim.After(10, recurse);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), 50u);
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  EventId id = sim.At(10, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, CancelTwiceIsNoop) {
  Simulation sim;
  EventId id = sim.At(10, [] {});
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(99999));
}

TEST(SimulationTest, RunUntilStopsAtLimit) {
  Simulation sim;
  int fired = 0;
  sim.At(10, [&] { fired++; });
  sim.At(20, [&] { fired++; });
  sim.At(30, [&] { fired++; });
  EXPECT_EQ(sim.RunUntil(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20u);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulationTest, RunUntilAdvancesClockToHorizon) {
  Simulation sim;
  sim.RunUntil(1000);
  EXPECT_EQ(sim.Now(), 1000u);
}

TEST(SimulationTest, StepProcessesExactlyOne) {
  Simulation sim;
  int fired = 0;
  sim.At(10, [&] { fired++; });
  sim.At(20, [&] { fired++; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulationTest, IdleReflectsLiveEvents) {
  Simulation sim;
  EXPECT_TRUE(sim.Idle());
  EventId id = sim.At(10, [] {});
  EXPECT_FALSE(sim.Idle());
  sim.Cancel(id);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulationTest, CancelAfterFireIsNoop) {
  Simulation sim;
  EventId first = sim.At(10, [] {});
  sim.Run();
  bool fired = false;
  sim.At(20, [&] { fired = true; });
  // The first event already ran: cancelling it must neither report success
  // nor make the still-pending second event look gone.
  EXPECT_FALSE(sim.Cancel(first));
  EXPECT_FALSE(sim.Idle());
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(sim.Idle());
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulation sim(seed);
    std::vector<uint64_t> values;
    for (int i = 0; i < 10; i++) {
      sim.After(sim.rng().NextBelow(100) + 1,
                [&values, &sim] { values.push_back(sim.Now()); });
    }
    sim.Run();
    return values;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(SimulationTest, EventCountTracked) {
  Simulation sim;
  for (int i = 0; i < 7; i++) sim.At(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(SimulationTest, StaleIdDoesNotCancelSlotReuser) {
  Simulation sim;
  EventId cancelled = sim.At(10, [] {});
  EXPECT_TRUE(sim.Cancel(cancelled));
  // The freed slot is taken by the next event; the old id must not reach it.
  bool fired = false;
  EventId reuser = sim.At(20, [&] { fired = true; });
  EXPECT_NE(reuser, cancelled);
  EXPECT_FALSE(sim.Cancel(cancelled));
  EXPECT_FALSE(sim.Cancel(0));
  EXPECT_FALSE(sim.Idle());
  sim.Run();
  EXPECT_TRUE(fired);
  // The same holds for an id whose event fired.
  bool later = false;
  sim.At(30, [&] { later = true; });
  EXPECT_FALSE(sim.Cancel(reuser));
  sim.Run();
  EXPECT_TRUE(later);
}

TEST(SimulationTest, CancelMidHeapKeepsOrder) {
  Simulation sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  // Times with ties, inserted out of order: (time, insertion) sorts them.
  const SimTime times[] = {50, 10, 30, 10, 40, 30, 20, 50, 10, 20, 40, 30};
  for (int i = 0; i < 12; i++) {
    ids.push_back(sim.At(times[i], [&order, i] { order.push_back(i); }));
  }
  EXPECT_TRUE(sim.Cancel(ids[5]));
  EXPECT_TRUE(sim.Cancel(ids[3]));
  EXPECT_TRUE(sim.Cancel(ids[10]));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 8, 6, 9, 2, 11, 4, 0, 7}));
}

TEST(SimulationTest, CallbackCanCancelAnotherEvent) {
  Simulation sim;
  std::vector<int> order;
  EventId victim = 0;
  bool cancelled = false;
  sim.At(10, [&] {
    order.push_back(1);
    cancelled = sim.Cancel(victim);
  });
  victim = sim.At(20, [&] { order.push_back(2); });
  sim.At(30, [&] { order.push_back(3); });
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_TRUE(sim.Idle());
}

// Interleaved At / Cancel / Step against a reference ordered set of
// (time, insertion seq): pop order, Cancel's answers and Idle() must match.
TEST(SimulationTest, MatchesReferenceQueueUnderRandomOps) {
  Simulation sim;
  Rng rng(7);
  std::set<std::pair<SimTime, uint64_t>> live;
  std::vector<SimTime> due;  // by seq
  std::vector<EventId> ids;  // by seq
  std::vector<bool> pending;  // by seq
  int64_t fired = -1;
  for (int op = 0; op < 10000; op++) {
    uint64_t dice = rng.NextBelow(10);
    if (dice < 5) {
      uint64_t seq = ids.size();
      SimTime t = sim.Now() + rng.NextBelow(50);
      ids.push_back(sim.At(t, [&fired, seq] {
        fired = static_cast<int64_t>(seq);
      }));
      due.push_back(t);
      pending.push_back(true);
      live.insert({t, seq});
    } else if (dice < 7) {
      if (ids.empty()) continue;
      uint64_t seq = rng.NextBelow(ids.size());
      ASSERT_EQ(sim.Cancel(ids[seq]), static_cast<bool>(pending[seq]))
          << "op " << op;
      if (pending[seq]) {
        live.erase({due[seq], seq});
        pending[seq] = false;
      }
    } else {
      fired = -1;
      ASSERT_EQ(sim.Step(), !live.empty()) << "op " << op;
      if (!live.empty()) {
        auto [t, seq] = *live.begin();
        live.erase(live.begin());
        ASSERT_EQ(fired, static_cast<int64_t>(seq)) << "op " << op;
        ASSERT_EQ(sim.Now(), t);
        pending[seq] = false;
      }
    }
    ASSERT_EQ(sim.Idle(), live.empty()) << "op " << op;
  }
  EXPECT_FALSE(ids.empty());
}

}  // namespace
}  // namespace hat::sim
