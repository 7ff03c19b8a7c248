#include "stream/scheduler.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace ff::stream {
namespace {

Record record_at(uint64_t sequence, double timestamp = 0) {
  Record record;
  record.sequence = sequence;
  record.timestamp = timestamp;
  record.values = {Value{static_cast<int64_t>(sequence)}};
  return record;
}

/// The policy's releases for one arrival / one punctuation mark, through
/// the append-style call shape.
std::vector<RecordRef> item_releases(SelectionPolicy& policy,
                                     const Record& record) {
  std::vector<RecordRef> released;
  policy.on_item(std::make_shared<const Record>(record), released);
  return released;
}

std::vector<RecordRef> punctuation_releases(SelectionPolicy& policy,
                                            const Json& argument) {
  std::vector<RecordRef> released;
  policy.on_punctuation(argument, released);
  return released;
}

struct Capture {
  std::vector<std::pair<std::string, uint64_t>> deliveries;
  DataScheduler::Consumer consumer() {
    return [this](const std::string& queue, const Record& record) {
      deliveries.emplace_back(queue, record.sequence);
    };
  }
};

TEST(Policies, ForwardAllReleasesImmediately) {
  ForwardAllPolicy policy;
  EXPECT_EQ(item_releases(policy, record_at(1)).size(), 1u);
  EXPECT_TRUE(punctuation_releases(policy, Json::object()).empty());
  // The release is the arriving record itself, not a copy.
  const RecordRef shared = std::make_shared<const Record>(record_at(2));
  std::vector<RecordRef> released;
  policy.on_item(shared, released);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].get(), shared.get());
}

TEST(Policies, SlidingWindowCountKeepsLastN) {
  SlidingWindowCountPolicy policy(3);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(item_releases(policy, record_at(i)).empty());
  }
  const auto window = punctuation_releases(policy, Json::object());
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window[0]->sequence, 2u);
  EXPECT_EQ(window[2]->sequence, 4u);
  EXPECT_THROW(SlidingWindowCountPolicy(0), ValidationError);
}

TEST(Policies, SlidingWindowTimeEvictsOldRecords) {
  SlidingWindowTimePolicy policy(10.0);
  item_releases(policy, record_at(0, 0.0));
  item_releases(policy, record_at(1, 5.0));
  item_releases(policy, record_at(2, 16.0));  // evicts t=0 and t=5
  const auto window = punctuation_releases(policy, Json::object());
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0]->sequence, 2u);
  EXPECT_THROW(SlidingWindowTimePolicy(0), ValidationError);
}

TEST(Policies, DirectSelectionByPunctuation) {
  DirectSelectionPolicy policy;
  for (uint64_t i = 0; i < 6; ++i) item_releases(policy, record_at(i));
  EXPECT_EQ(policy.queued(), 6u);

  Json select = Json::object();
  select["select"] = Json::array({Json(4), Json(1), Json(99)});
  const auto released = punctuation_releases(policy, select);
  ASSERT_EQ(released.size(), 2u);  // 99 not present
  EXPECT_EQ(released[0]->sequence, 4u);
  EXPECT_EQ(released[1]->sequence, 1u);
  EXPECT_EQ(policy.queued(), 4u);  // selected records left the queue

  Json drop = Json::object();
  drop["drop_before"] = 3;
  punctuation_releases(policy, drop);
  EXPECT_EQ(policy.queued(), 2u);  // 3 and 5 remain

  Json flush = Json::object();
  flush["flush"] = true;
  EXPECT_EQ(punctuation_releases(policy, flush).size(), 2u);
  EXPECT_EQ(policy.queued(), 0u);
}

TEST(Policies, DirectSelectionBoundsItsQueue) {
  DirectSelectionPolicy policy(4);
  for (uint64_t i = 0; i < 10; ++i) item_releases(policy, record_at(i));
  EXPECT_EQ(policy.queued(), 4u);  // oldest dropped
}

TEST(Policies, SampleEveryN) {
  SampleEveryNPolicy policy(3);
  size_t taken = 0;
  for (uint64_t i = 0; i < 9; ++i) taken += item_releases(policy, record_at(i)).size();
  EXPECT_EQ(taken, 3u);
  EXPECT_THROW(SampleEveryNPolicy(0), ValidationError);
}

TEST(Scheduler, PublishFansOutToActiveQueues) {
  DataScheduler scheduler;
  Capture capture;
  scheduler.subscribe(capture.consumer());
  scheduler.install_queue("live", std::make_unique<ForwardAllPolicy>());
  scheduler.install_queue("sampled", std::make_unique<SampleEveryNPolicy>(2));
  for (uint64_t i = 0; i < 4; ++i) scheduler.publish(record_at(i));
  // live gets 4, sampled gets 2.
  size_t live = 0;
  size_t sampled = 0;
  for (const auto& [queue, _] : capture.deliveries) {
    if (queue == "live") ++live;
    if (queue == "sampled") ++sampled;
  }
  EXPECT_EQ(live, 4u);
  EXPECT_EQ(sampled, 2u);
  EXPECT_EQ(scheduler.stats("live").arrivals, 4u);
  EXPECT_EQ(scheduler.stats("live").releases, 4u);
  EXPECT_EQ(scheduler.stats("sampled").releases, 2u);
}

TEST(Scheduler, InactiveQueuesReceiveNothing) {
  DataScheduler scheduler;
  Capture capture;
  scheduler.subscribe(capture.consumer());
  scheduler.install_queue("q", std::make_unique<ForwardAllPolicy>());
  scheduler.set_active("q", false);
  EXPECT_FALSE(scheduler.is_active("q"));
  scheduler.publish(record_at(0));
  EXPECT_TRUE(capture.deliveries.empty());
  scheduler.set_active("q", true);
  scheduler.publish(record_at(1));
  EXPECT_EQ(capture.deliveries.size(), 1u);
}

TEST(Scheduler, ControlTargetsOneQueue) {
  DataScheduler scheduler;
  Capture capture;
  scheduler.subscribe(capture.consumer());
  scheduler.install_queue("w1", std::make_unique<SlidingWindowCountPolicy>(8));
  scheduler.install_queue("w2", std::make_unique<SlidingWindowCountPolicy>(8));
  scheduler.publish(record_at(0));
  scheduler.control("w1", Json::object());
  ASSERT_EQ(capture.deliveries.size(), 1u);
  EXPECT_EQ(capture.deliveries[0].first, "w1");
  scheduler.punctuate(Json::object());  // broadcast hits both
  EXPECT_EQ(capture.deliveries.size(), 3u);
}

TEST(Scheduler, QueueManagementErrors) {
  DataScheduler scheduler;
  scheduler.install_queue("q", std::make_unique<ForwardAllPolicy>());
  EXPECT_THROW(scheduler.install_queue("q", std::make_unique<ForwardAllPolicy>()),
               ValidationError);
  EXPECT_THROW(scheduler.install_queue("null", nullptr), ValidationError);
  EXPECT_THROW(scheduler.control("ghost", Json::object()), NotFoundError);
  EXPECT_THROW(scheduler.set_active("ghost", true), NotFoundError);
  scheduler.remove_queue("q");
  EXPECT_FALSE(scheduler.has_queue("q"));
  EXPECT_THROW(scheduler.remove_queue("q"), NotFoundError);
}

TEST(PolicyFactory, BuildsBuiltins) {
  const PolicyFactory factory = PolicyFactory::with_builtins();
  EXPECT_TRUE(factory.knows("forward-all"));
  EXPECT_TRUE(factory.knows("direct-selection"));
  Json args = Json::object();
  args["capacity"] = 4;
  auto policy = factory.build("sliding-window-count", args);
  EXPECT_EQ(policy->name(), "sliding-window-count(4)");
  EXPECT_THROW(factory.build("warp-drive", Json::object()), NotFoundError);
}

TEST(PolicyFactory, RuntimeInstallViaControlMessage) {
  // The Section V-C scenario: a steering process installs a policy that was
  // unknown at code-generation time, then drives it via punctuation.
  DataScheduler scheduler;
  Capture capture;
  scheduler.subscribe(capture.consumer());
  scheduler.install_queue("default", std::make_unique<ForwardAllPolicy>());

  const PolicyFactory factory = PolicyFactory::with_builtins();
  const Json message = Json::parse(
      R"({"install": {"queue": "steered", "kind": "direct-selection",
                      "args": {"max_queue": 16}}})");
  factory.handle_install(scheduler, message);
  ASSERT_TRUE(scheduler.has_queue("steered"));

  for (uint64_t i = 0; i < 5; ++i) scheduler.publish(record_at(i));
  Json select = Json::object();
  select["select"] = Json::array({Json(3)});
  scheduler.control("steered", select);

  bool steered_delivery = false;
  for (const auto& [queue, sequence] : capture.deliveries) {
    if (queue == "steered" && sequence == 3) steered_delivery = true;
  }
  EXPECT_TRUE(steered_delivery);
}

TEST(PolicyFactory, CustomKindRegistration) {
  PolicyFactory factory;
  factory.register_kind("always-empty", [](const Json&) {
    return std::make_unique<SlidingWindowCountPolicy>(1);
  });
  EXPECT_TRUE(factory.knows("always-empty"));
  EXPECT_NE(factory.build("always-empty", Json::object()), nullptr);
}

}  // namespace
}  // namespace ff::stream
