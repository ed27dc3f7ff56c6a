#include "cluster/message_bus.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace hyades::cluster {
namespace {

TEST(MessageBus, SendRecvSameThread) {
  MessageBus bus(4);
  bus.send(2, Message{0, 7, {1.0, 2.0}, 3.5});
  const Message m = bus.recv(2, 0, 7);
  EXPECT_EQ(m.src, 0);
  EXPECT_EQ(m.tag, 7);
  EXPECT_EQ(m.data, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(m.stamp_us, 3.5);
}

TEST(MessageBus, FifoPerSourceAndTag) {
  MessageBus bus(2);
  for (int i = 0; i < 10; ++i) {
    bus.send(1, Message{0, 5, {static_cast<double>(i)}, 0});
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(bus.recv(1, 0, 5).data[0], i);
  }
}

TEST(MessageBus, TagsAreIndependent) {
  MessageBus bus(2);
  bus.send(1, Message{0, 1, {1.0}, 0});
  bus.send(1, Message{0, 2, {2.0}, 0});
  EXPECT_DOUBLE_EQ(bus.recv(1, 0, 2).data[0], 2.0);
  EXPECT_DOUBLE_EQ(bus.recv(1, 0, 1).data[0], 1.0);
}

TEST(MessageBus, SourcesAreIndependent) {
  MessageBus bus(3);
  bus.send(2, Message{0, 1, {10.0}, 0});
  bus.send(2, Message{1, 1, {20.0}, 0});
  EXPECT_DOUBLE_EQ(bus.recv(2, 1, 1).data[0], 20.0);
  EXPECT_DOUBLE_EQ(bus.recv(2, 0, 1).data[0], 10.0);
}

TEST(MessageBus, RecvBlocksUntilSend) {
  MessageBus bus(2);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    bus.send(1, Message{0, 3, {42.0}, 0});
  });
  EXPECT_DOUBLE_EQ(bus.recv(1, 0, 3).data[0], 42.0);
  sender.join();
}

TEST(MessageBus, PeerExitThrows) {
  // A receive from an exited rank with nothing queued can never
  // complete: it throws at once instead of waiting on the host clock.
  MessageBus bus(2);
  bus.mark_exited(0);
  try {
    (void)bus.recv(1, 0, 3);
    FAIL() << "expected PeerExited";
  } catch (const PeerExited& e) {
    EXPECT_EQ(e.rank, 1);
    EXPECT_EQ(e.from, 0);
    EXPECT_EQ(e.tag, 3);
  }
}

TEST(MessageBus, PeerExitDeliversQueuedMessagesFirst) {
  MessageBus bus(2);
  bus.send(1, Message{0, 3, {7.0}, 0});
  bus.mark_exited(0);
  EXPECT_DOUBLE_EQ(bus.recv(1, 0, 3).data[0], 7.0);
  EXPECT_THROW((void)bus.recv(1, 0, 3), PeerExited);
}

TEST(MessageBus, Poll) {
  MessageBus bus(2);
  EXPECT_FALSE(bus.poll(1, 0, 3));
  bus.send(1, Message{0, 3, {1.0}, 0});
  EXPECT_TRUE(bus.poll(1, 0, 3));
  (void)bus.recv(1, 0, 3);
  EXPECT_FALSE(bus.poll(1, 0, 3));
}

TEST(MessageBus, SelfSendWorks) {
  MessageBus bus(1);
  bus.send(0, Message{0, 9, {5.0}, 0});
  EXPECT_DOUBLE_EQ(bus.recv(0, 0, 9).data[0], 5.0);
}

TEST(MessageBus, RejectsBadConstruction) {
  EXPECT_THROW(MessageBus(0), std::invalid_argument);
}

}  // namespace
}  // namespace hyades::cluster
